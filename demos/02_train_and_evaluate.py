"""Train the heatmap regressor on a small synthetic dataset and score it.

Uses a reduced grid and a handful of scenes so the whole run takes well under
a minute on a laptop CPU; the mechanics are identical at full scale.
"""
from scenecomp import nn
from scenecomp.catalog import default_catalog
from scenecomp.dataset import build_sample, synthetic_dataset
from scenecomp.model import BASE, TrainConfig, evaluate_model, new_model, train


def main():
    catalog = default_catalog()

    print("generating 40 scenes ...")
    _, splits = synthetic_dataset(seed=7, n_scenes=40, n_rooms=3)
    train_s, val_s, test_s = (
        [build_sample(g, ids, grid_size=16) for g, ids in split] for split in splits
    )
    print(f"split {len(train_s)}/{len(val_s)}/{len(test_s)} train/val/test")

    cfg = nn.ModelConfig(variant=BASE, n_classes=catalog.n, grid_size=16, hidden=64)
    model = new_model(cfg, catalog.hash(), seed=0)
    tc = TrainConfig(epochs=150, batch_size=12, lr=1e-3, lr_decay=0.0, seed=0)

    print(f"training {cfg.variant}: hidden={cfg.hidden}, "
          f"input width {cfg.input_width}, {tc.epochs} epochs ...")
    model, history = train(model, train_s, val_s, tc)
    for h in history[:: max(1, len(history) // 6)]:
        print(f"  epoch {h['epoch']:>4}  train {h['train']:.5f}  val {h['val']:.5f}")
    print(f"final train MSE {history[-1]['train']:.5f} "
          f"(epoch-1 was {history[0]['train']:.5f})")

    report = evaluate_model(model, test_s)
    print("\ntest-split metrics (lower is better):")
    for name in ("wasserstein", "energy", "frobenius"):
        m = getattr(report, name)
        print(f"  {name:<12} n={m.n:<4} mean={m.mean:.5f} variance={m.variance:.2e}")


if __name__ == "__main__":
    main()
