"""The benchmark's workloads, each a closed loop of whole rounds.

A round runs the same operations on the same inputs every time, so every
round of a run yields bitwise-equal outputs; the first round's outputs are
kept for the correctness checks, later rounds are compared by digest.
Library functions are always called through their module attribute
(`sc.model.predict`, not a bound name) so that the tracer sees them.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import scenecomp as sc
import scenecomp.catalog
import scenecomp.cli
import scenecomp.dataset
import scenecomp.graphs
import scenecomp.layout
import scenecomp.metrics
import scenecomp.model
import scenecomp.nn
import scenecomp.ontology
import scenecomp.raster
import scenecomp.render

import oracles
from oracles import CheckFailed, expect

REMOVAL_FRACTION = 0.25  # objects deleted by augment (partial observation)
BLIND_FRACTION = 0.25  # remaining objects masked into blind nodes
# Weight initialisation and training order are fixed; the workload seed
# draws the scenes. The seed then moves the quality metrics only through
# the data, which keeps them comparable across seeds.
MODEL_SEED = 0


class Round:
    """Timings, operation counts and an output digest of one round."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.items = defaultdict(int)
        self.predict_ms: list[float] = []
        self.ops = 0
        self.failed = 0
        self.digest = hashlib.sha256()

    @contextlib.contextmanager
    def stage(self, name: str, items: int, ops: int = 1):
        start = time.perf_counter()
        yield
        self.seconds[name] += time.perf_counter() - start
        self.items[name] += items
        self.ops += ops

    def predict(self, fn):
        start = time.perf_counter()
        result = fn()
        self.predict_ms.append((time.perf_counter() - start) * 1e3)
        self.ops += 1
        return result

    def absorb(self, *arrays) -> None:
        for a in arrays:
            self.digest.update(np.ascontiguousarray(a).tobytes())


class Checks:
    """Runs named checks; a CheckFailed is recorded, never raised."""

    def __init__(self):
        self.passed = 0
        self.failures: list[str] = []

    def __call__(self, name: str, fn, *args) -> None:
        try:
            fn(*args)
        except CheckFailed as e:
            self.failures.append(f"{name}: {e}")
        else:
            self.passed += 1


def _seed_stream(seed: int, n: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.getrandbits(31) for _ in range(n)]


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def _layout_scene(heat, blind: dict, out_dir: Path):
    """Layout grid, blind placements and a PPM for every room of a heatmap set."""
    threshold = sc.layout.default_threshold(heat.grid_size)
    rooms = []
    for ri, room_id in enumerate(heat.room_ids):
        frame = heat.room_frames[ri]
        lg = sc.layout.extract_layout(heat.data[ri], threshold, frame)
        placed = sc.layout.place_blind_nodes(
            heat.data[ri], sorted(blind.get(room_id, {}).items()), lg, frame
        )
        path = sc.render.render_layout(room_id, lg, out_dir)
        rooms.append((lg.cells, [(p.class_index, p.cell, p.xy, p.low_support) for p in placed], path))
    return rooms


class Workload:
    """One benchmark workload: set-up, timed rounds, sizes/quality and checks."""

    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.digests: list[str] = []
        self.kept: dict = {}

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self, rnd: Round, keep: bool) -> None:
        raise NotImplementedError

    def finish(self) -> dict[str, float]:
        """dataset.bytes, checkpoint.bytes and the quality metrics."""
        raise NotImplementedError

    def check(self, check: Checks) -> None:
        raise NotImplementedError

    # -- shared pieces --------------------------------------------------------

    def _scene_seeds(self, n: int) -> list[tuple[int, int, int]]:
        s = _seed_stream(self.seed, 3 * n)
        return [tuple(s[3 * i : 3 * i + 3]) for i in range(n)]

    def _make_samples(self, seeds, n_rooms: int, grid: int):
        samples, truths = [], []
        for s_scene, s_aug, s_mask in seeds:
            g = sc.dataset.generate_synthetic_scene(self.templates, n_rooms, s_scene, self.catalog)
            g_aug = sc.graphs.augment(g, REMOVAL_FRACTION, s_aug)
            samples.append(sc.dataset.make_sample(g_aug, BLIND_FRACTION, grid, s_mask))
            truths.append(g_aug)
        return samples, truths

    def _check_rounds_equal(self, check: Checks) -> None:
        check("outputs are bitwise equal in every round",
              lambda: expect(len(set(self.digests)) == 1, f"{len(set(self.digests))} digests"))

    def _check_training(self, check: Checks, losses, factor: float) -> None:
        check(f"final-epoch train loss < {factor} x first",
              lambda: expect(losses[-1] < factor * losses[0], f"losses {losses}"))

    def _check_scene_data(self, check: Checks, samples, truths, with_targets) -> None:
        for i, (s, g_aug) in enumerate(zip(samples, truths)):
            n_objects = sum(1 for n in g_aug.nodes if n.layer == "object")
            check(f"scene {i} counts and masking", oracles.check_sample_counts, s.counts.data,
                  s.graph.nodes, s.graph.edges, len(s.masked), n_objects, BLIND_FRACTION)
            if i in with_targets:
                check(f"scene {i} target heatmaps", oracles.check_target_heatmaps,
                      s.target_heatmaps.data, g_aug.nodes, g_aug.edges)

    def _check_predictions(self, check: Checks, preds, samples, again) -> None:
        for i, (h, s) in enumerate(zip(preds, samples)):
            counts = oracles.class_counts(s.graph.nodes, s.graph.edges, h.data.shape[1])
            check(f"prediction {i} normalization", oracles.check_prediction, h.data, counts)
        check("predicting a graph twice is bitwise equal",
              lambda: expect(np.array_equal(preds[0].data, again.data), "predictions differ"))

    def _check_distances(self, check: Checks, preds, truths, n, w1_mean, energy_mean) -> None:
        """Sampled pair distances and a report's pair count and pooled means vs SciPy."""
        pairs = []
        for p, t in zip(preds, truths):
            present = t.data.sum(axis=(2, 3)) > 0
            pairs += [(p.data[r, c], t.data[r, c]) for r, c in zip(*np.nonzero(present))]
        check("report n equals (room, present class) pairs",
              lambda: expect(n == len(pairs), f"{n} != {len(pairs)}"))
        for i in random.Random(self.seed).sample(range(len(pairs)), min(48, len(pairs))):
            p, q = pairs[i]
            check(f"pair {i} W1", oracles.check_distance, "wasserstein",
                  sc.metrics.wasserstein_grid(p, q), p, q)
            check(f"pair {i} energy", oracles.check_distance, "energy", sc.metrics.energy_grid(p, q), p, q)
        check("report W1 mean", oracles.check_mean, "W1", w1_mean,
              [oracles.w1_oracle(p, q) for p, q in pairs])
        check("report energy mean", oracles.check_mean, "energy", energy_mean,
              [oracles.energy_oracle(p, q) for p, q in pairs])

    def _check_layouts(self, check: Checks, layouts, heats, blinds) -> None:
        for k, (rooms, heat, blind) in enumerate(zip(layouts, heats, blinds)):
            threshold = 1.0 / heat.grid_size**2
            for ri, (cells, placed, path) in enumerate(rooms):
                room_id = heat.room_ids[ri]
                check(f"scene {k} room {room_id} layout", oracles.check_layout, cells, placed,
                      heat.data[ri], threshold, blind.get(room_id, {}), heat.room_frames[ri])
                check(f"scene {k} room {room_id} PPM", oracles.check_netpbm,
                      Path(path).read_bytes(), "P6", heat.grid_size)

    def _check_batching(self, check: Checks, m, samples) -> None:
        encoded = [sc.model.encode_inputs(s, m) for s in samples]
        batched = sc.model.validation_loss(m, encoded)
        per_graph = [sc.model.validation_loss(m, [e]) for e in encoded]
        check("batched validation loss = row-weighted mean", oracles.check_batching,
              batched, per_graph, [len(e.room_rows) for e in encoded])


class TrainS16Ont(Workload):
    """In-memory training at the paper's comparison scale."""

    name = "train-s16-ont"
    GRID, HIDDEN, ROOMS, BATCH, EPOCHS, LR = 16, 64, 3, 12, 4, 1e-3
    N_TRAIN, N_VAL, N_TEST = 36, 12, 60
    N_TARGET_CHECKS = 12

    def setup(self):
        self.catalog = sc.catalog.default_catalog()
        self.templates = sc.dataset.default_templates()
        self.config = sc.nn.ModelConfig(variant=sc.model.BASE_ONT, n_classes=self.catalog.n,
                                        grid_size=self.GRID, hidden=self.HIDDEN)
        self.train_cfg = sc.model.TrainConfig(self.EPOCHS, self.BATCH, self.LR, seed=MODEL_SEED)
        self.seeds = self._scene_seeds(self.N_TRAIN + self.N_VAL + self.N_TEST)
        self.out_dir = self.workdir / "images"

    def run_round(self, rnd, keep):
        with rnd.stage("generate", len(self.seeds), ops=len(self.seeds)):
            samples, truths = self._make_samples(self.seeds, self.ROOMS, self.GRID)
        n_fit = self.N_TRAIN + self.N_VAL
        train_set, val_set, test_set = samples[: self.N_TRAIN], samples[self.N_TRAIN : n_fit], samples[n_fit:]
        blinds = [oracles.blind_counts(s.graph.nodes, s.graph.edges) for s in test_set]
        affinity = sc.ontology.class_affinity(sc.ontology.default_ontology())
        m = sc.model.new_model(self.config, self.catalog.hash(), MODEL_SEED, affinity)
        with rnd.stage("train", self.N_TRAIN * self.EPOCHS):
            m, history = sc.model.train(m, train_set, val_set, self.train_cfg)
        with rnd.stage("eval", self.N_TEST):
            report = sc.model.evaluate_model(m, test_set)
        preds = [rnd.predict(lambda: sc.model.predict(m, s)) for s in test_set]
        n_rooms = self.N_TEST * self.ROOMS
        with rnd.stage("layout", n_rooms, ops=n_rooms):
            layouts = [_layout_scene(h, b, self.out_dir / f"scene{k}")
                       for k, (h, b) in enumerate(zip(preds, blinds))]
        rnd.absorb([e["train"] for e in history], *(h.data for h in preds),
                   *(cells for rooms in layouts for cells, _, _ in rooms))
        if keep:
            self.kept = dict(samples=samples, truths=truths, model=m, history=history,
                             report=report, preds=preds, layouts=layouts, blinds=blinds)

    def finish(self):
        k = self.kept
        m = k["model"]
        ckpt = self.workdir / "checkpoint.json"
        sc.nn.save_checkpoint(ckpt, m.config, m.params, m.stats, m.catalog_hash)
        samples = k["samples"]
        n_fit = self.N_TRAIN + self.N_VAL
        splits = (samples[: self.N_TRAIN], samples[self.N_TRAIN : n_fit], samples[n_fit:])
        sc.dataset.save_dataset(samples, splits, self.workdir / "dataset", self.GRID, self.catalog, self.seed)
        k["read_back"] = sc.dataset.load_dataset(self.workdir / "dataset")[1]
        k["splits"] = dict(zip(("train", "val", "test"), splits))
        return {
            "dataset.bytes": _dir_bytes(self.workdir / "dataset"),
            "checkpoint.bytes": ckpt.stat().st_size,
            "quality.train_mse": k["history"][-1]["train"],
            "quality.wasserstein_mean": k["report"].wasserstein.mean,
        }

    def check(self, check):
        k = self.kept
        n_fit = self.N_TRAIN + self.N_VAL
        test_set = k["samples"][n_fit:]
        self._check_rounds_equal(check)
        self._check_training(check, [e["train"] for e in k["history"]], 0.5)
        again = sc.model.predict(k["model"], test_set[0])
        self._check_predictions(check, k["preds"], test_set, again)
        self._check_batching(check, k["model"], k["samples"][self.N_TRAIN : n_fit])
        report = k["report"]
        self._check_distances(check, k["preds"], [s.target_heatmaps for s in test_set],
                              report.wasserstein.n, report.wasserstein.mean, report.energy.mean)
        targets = set(random.Random(self.seed).sample(range(len(k["samples"])), self.N_TARGET_CHECKS))
        self._check_scene_data(check, k["samples"], k["truths"], targets)
        self._check_layouts(check, k["layouts"], k["preds"], k["blinds"])
        for name, split in k["splits"].items():
            back = k["read_back"][name]
            check(f"{name} split read back", lambda: expect(len(back) == len(split), "size differs"))
            for i, (a, b) in enumerate(zip(split, back)):
                for field in ("input_heatmaps", "target_heatmaps", "counts"):
                    check(f"{name}[{i}] {field} read back", oracles.check_equal_arrays, field,
                          getattr(b, field).data, getattr(a, field).data)


class CliS32(Workload):
    """The command-line flow, called in-process through scenecomp.cli.main."""

    name = "cli-s32"
    GRID, HIDDEN, ROOMS, SCENES, EPOCHS, LR = 32, 8, 4, 30, 2, 1e-3
    N_PREDICT = 6

    def setup(self):
        self.catalog = sc.catalog.default_catalog()
        self.templates = sc.dataset.default_templates()
        d = self.workdir
        config = {
            "dataset_dir": str(d / "dataset"),
            "checkpoint": str(d / "checkpoint.json"),
            "output_dir": str(d / "out"),
            "grid_size": self.GRID,
            "seed": MODEL_SEED,
            "n_scenes": self.SCENES,
            "n_rooms": self.ROOMS,
            "hidden": self.HIDDEN,
            "epochs": self.EPOCHS,
            "lr": self.LR,
        }
        self.config_path = d / "run.json"
        self.config_path.write_text(json.dumps(config, indent=1), encoding="utf-8")
        self.data_seed = str(_seed_stream(self.seed ^ 0xC11, 1)[0])
        samples, _ = self._make_samples(self._scene_seeds(self.N_PREDICT), self.ROOMS, self.GRID)
        self.graphs = []
        for i, s in enumerate(samples):
            path = d / f"belief_{i}.json"
            sc.graphs.save_graph(s.graph, path)
            self.graphs.append((path, d / f"pred_{i}", len(s.input_heatmaps.room_ids)))
        self.errors: list[str] = []

    def _cli(self, rnd: Round, *argv) -> None:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = sc.cli.main(["--config", str(self.config_path), *argv])
        if rc != 0:
            rnd.failed += 1
            self.errors.append(f"{' '.join(map(str, argv))}: exit {rc}: {err.getvalue().strip()}")

    def run_round(self, rnd, keep):
        with rnd.stage("generate", self.SCENES):
            self._cli(rnd, "--seed", self.data_seed, "generate")
        manifest = json.loads((self.workdir / "dataset" / "manifest.json").read_text())
        n_train, n_test = len(manifest["splits"]["train"]), len(manifest["splits"]["test"])
        with rnd.stage("train", n_train * self.EPOCHS):
            self._cli(rnd, "train")
        with rnd.stage("eval", n_test):
            self._cli(rnd, "eval")
        for graph, out, n_rooms in self.graphs:
            rnd.predict(lambda: self._cli(rnd, "--out", str(out), "predict", str(graph)))
            with rnd.stage("layout", n_rooms, ops=3):
                self._cli(rnd, "--out", str(out), "layout", str(out / "prediction.json"))
                self._cli(rnd, "--out", str(out), "render", str(out / "layout.json"))
                self._cli(rnd, "--out", str(out), "render", str(out / "prediction.json"))
        artifacts = [self.workdir / "dataset" / "manifest.json", self.workdir / "checkpoint.json",
                     self.workdir / "out" / "metrics_report.json"]
        for _, out, _ in self.graphs:
            artifacts += [out / "prediction.json", out / "layout.json"]
        for path in artifacts:
            rnd.digest.update(path.read_bytes() if path.exists() else b"missing")

    def _loaded(self):
        if "model" not in self.kept:
            config, params, stats, catalog_hash, _, extra = sc.nn.load_checkpoint(self.workdir / "checkpoint.json")
            self.kept["model"] = sc.model.CompositionModel(config, params, stats, catalog_hash)
            self.kept["extra"] = extra
            self.kept["report"] = json.loads((self.workdir / "out" / "metrics_report.json").read_text())
            self.kept["splits"] = sc.dataset.load_dataset(self.workdir / "dataset")[1]
        return self.kept

    def finish(self):
        k = self._loaded()
        return {
            "dataset.bytes": _dir_bytes(self.workdir / "dataset"),
            "checkpoint.bytes": (self.workdir / "checkpoint.json").stat().st_size,
            "quality.train_mse": k["extra"]["history_tail"][-1]["train"],
            "quality.wasserstein_mean": k["report"]["wasserstein"]["mean"],
        }

    def check(self, check):
        check("every command returns 0", lambda: expect(not self.errors, "; ".join(self.errors[:3])))
        if self.errors:
            return
        k = self._loaded()
        m = k["model"]
        self._check_rounds_equal(check)
        tail = k["extra"]["history_tail"]
        check("history covers every epoch", lambda: expect(len(tail) == self.EPOCHS, f"{len(tail)} epochs"))
        self._check_training(check, [e["train"] for e in tail], 1.0)

        preds, blinds, layouts, beliefs = [], [], [], []
        for graph, out, _ in self.graphs:
            g = sc.graphs.load_graph(graph)
            heat, counts = sc.raster.rasterize(g, self.GRID)
            belief = sc.dataset.BsgSample(g, heat, counts, heat, ())
            want = sc.model.predict(m, belief)
            doc = json.loads((out / "prediction.json").read_text())
            got = sc.dataset.heatmaps_from_dict(doc["heatmaps"])
            check(f"{graph.name}: predict equals model.predict on the checkpoint",
                  lambda: expect(np.array_equal(got.data, want.data), "heatmaps differ"))
            preds.append(got)
            beliefs.append(belief)
            blinds.append(oracles.blind_counts(g.nodes, g.edges))
            rooms = json.loads((out / "layout.json").read_text())["rooms"]
            layouts.append([(_unrle(r["cells"], self.GRID),
                             [(p["class"], tuple(p["cell"]), tuple(p["xy"]), p["low_support"])
                              for p in r["placements"]],
                             out / f"room{r['room_id']}_layout.ppm") for r in rooms])
            for ri, room_id in enumerate(got.room_ids):
                check(f"{graph.name}: room {room_id} frame is the room extent",
                      lambda: expect(tuple(got.room_frames[ri]) == oracles.room_extent(g.node(room_id)),
                                     "frame differs"))
                for c in np.nonzero(counts.data[ri])[0]:
                    if got.data[ri, c].any():
                        pgm = out / f"room{room_id}_{self.catalog.labels[c]}.pgm"
                        check(f"{pgm.name} PGM", oracles.check_netpbm, pgm.read_bytes(), "P5", self.GRID)
        again = sc.model.predict(m, beliefs[0])
        self._check_predictions(check, preds, beliefs, again)
        self._check_layouts(check, layouts, preds, blinds)

        splits = k["splits"]
        test = splits["test"]
        w1, energy = k["report"]["wasserstein"], k["report"]["energy"]
        test_preds = [sc.model.predict(m, s) for s in test]
        self._check_distances(check, test_preds, [s.target_heatmaps for s in test],
                              w1["n"], w1["mean"], energy["mean"])
        self._check_batching(check, m, splits["val"] + test)


def _unrle(runs, grid: int) -> np.ndarray:
    cells = []
    for value, count in runs:
        cells += [value] * count
    return np.array(cells, dtype=np.int64).reshape(grid, grid)


WORKLOADS = {w.name: w for w in (TrainS16Ont, CliS32)}
