"""From predicted heatmaps to a discrete layout with placed blind nodes.

Takes an untrained model's (still valid, still normalized) predictions,
extracts an argmax-with-threshold layout per room, and drops each blind
node at the highest-probability free cell of its class.
"""
from pathlib import Path

from scenecomp import nn
from scenecomp.catalog import default_catalog
from scenecomp.dataset import default_templates, generate_synthetic_scene, make_sample
from scenecomp.graphs import BLIND, augment, children_of
from scenecomp.layout import default_threshold, extract_layout, place_blind_nodes
from scenecomp.model import BASE, new_model, predict
from scenecomp.render import render_layout

OUT = Path(__file__).with_suffix("") / "out"


def main():
    catalog = default_catalog()
    g = generate_synthetic_scene(default_templates(), n_rooms=2, seed=9, catalog=catalog)
    g = augment(g, 0.25, seed=9)
    sample = make_sample(g, 0.25, grid_size=16, seed=9)

    cfg = nn.ModelConfig(variant=BASE, n_classes=catalog.n, grid_size=16, hidden=32)
    model = new_model(cfg, catalog.hash(), seed=0)
    heat = predict(model, sample)

    threshold = default_threshold(16)
    print(f"threshold = 1/S^2 = {threshold:.6f}")
    for ri, room_id in enumerate(heat.room_ids):
        frame = heat.room_frames[ri]
        lg = extract_layout(heat.data[ri], threshold)
        occupied = int((lg.cells >= 0).sum())
        print(f"\nroom {room_id}: frame {tuple(round(v, 2) for v in frame)}, "
              f"{occupied}/{16 * 16} cells labeled")

        blind = {}
        for b in children_of(sample.graph, room_id, BLIND):
            blind[b.class_index] = blind.get(b.class_index, 0) + 1
        placements = place_blind_nodes(heat.data[ri], sorted(blind.items()), lg, frame)
        for p in placements:
            flag = " (low support)" if p.low_support else ""
            print(f"  place {catalog.label(p.class_index):<12} at cell {p.cell} "
                  f"-> world ({p.xy[0]:.2f}, {p.xy[1]:.2f}){flag}")

        path = render_layout(room_id, lg, OUT)
        print(f"  layout image: {path}")


if __name__ == "__main__":
    main()
