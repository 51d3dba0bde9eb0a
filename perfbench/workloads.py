"""The train and infer workloads.

Every workload runs the whole user pipeline from one process:

  set-up -> gen (cli.generate_dataset) -> load (cli.load_dataset)
         -> train (training.train) -> infer (knn, hierarchy, predict_pair, apps)

The measured phase is a loop of rounds, each doing some gen calls, some
train calls and one infer pass, until the workload's own stage has run for
--seconds. The other stages run alongside at a companion size, so every
end-to-end metric is measured on every workload. Output checks and quality
numbers are computed afterwards, outside every timed region.

Library functions are called through their modules (``knn.build_knn``, not
a local binding) so that the tracer's wrappers see every call.
"""
from __future__ import annotations

import gc
import json
import os
import shutil
import statistics
import time
import warnings
from dataclasses import dataclass, replace

import numpy as np

from pointlap import apps, cli, geometry, knn, training
from pointlap import model as model_mod
from pointlap.autodiff import Tape
from pointlap.meshio import load_obj
from pointlap.probes import load_probes
from pointlap.sparse import load_matrix_market, load_vector

from checks import (Checker, check_arap, check_filter, check_geodesic, check_heat,
                    check_pair, check_smooth, check_stored_probes)
from quality import BASELINES, QUALITY_BY_KIND, QUALITY_OVERALL, median, shape_errors

SETUP_REPEATS = 3
MIN_CALLS = 2    # gen and train calls, at least
MIN_PASSES = 3   # calls of each (cloud, step), at least
DENSE_ORACLE_MAX_N = 1500
APPS = ("heat", "geodesic", "smooth", "filter", "arap")
STEPS = ("predict", *APPS)
FILTER_MODES = 20
ARAP_ITERS = 3
EPOCHS = 1       # per training.train call

# (label, kind, target vertex count); "thin-box" is a box of thickness 0.08-0.25
LARGE_CLOUDS = (("blob", "blended-blob", 2562), ("plane", "plane", 2500),
                ("thin_box", "thin-box", 2500), ("torus", "torus", 2500),
                ("blob_10k", "blended-blob", 10242))
SMALL_CLOUDS = (("blob", "blended-blob", 642), ("plane", "plane", 640),
                ("thin_box", "thin-box", 640), ("torus", "torus", 640))
TINY_CLOUDS = (("blob", "blended-blob", 162), ("plane", "plane", 160),
               ("thin_box", "thin-box", 160), ("torus", "torus", 160))


@dataclass(frozen=True)
class Plan:
    """How long each stage runs, as a share of --seconds, and on what.

    After a first pass that builds the training set and every infer output,
    the measured phase always runs the stage furthest behind its share, so
    the samples of every metric are spread over the whole run and a slow
    spell of a shared machine hits them alike.
    """

    share: dict         # stage -> share of --seconds it is measured for
    train_rounds: int   # datasets (one shape per kind each) loaded for training
    clouds: tuple       # infer clouds
    skip: tuple = ()    # (cloud label, step) pairs not run
    # vertex count of every generated shape: the middle of the CLI default
    # range 500-900, fixed so that gen time does not vary with the seed
    resolution: int = 700


PLANS = {
    "train": Plan({"gen": 0.5, "train": 0.8, "infer": 0.6}, train_rounds=3,
                  clouds=SMALL_CLOUDS),
    "infer": Plan({"gen": 0.15, "train": 0.2, "infer": 1.0}, train_rounds=1,
                  clouds=LARGE_CLOUDS, skip=(("blob_10k", "filter"), ("blob_10k", "arap"))),
}


def plan_for(workload: str, size: str) -> Plan:
    plan = PLANS[workload]
    if size == "tiny":
        plan = replace(plan, train_rounds=1, clouds=TINY_CLOUDS, resolution=160)
    return plan


# -- inputs -------------------------------------------------------------------

def sub_seed(seed: int, *keys: int) -> int:
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def _random_rotation(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def make_cloud(kind: str, n: int, seed: int) -> geometry.Mesh:
    """A normalized mesh whose vertices are the cloud; triangles serve geodesics."""
    if kind == "thin-box":
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x7B0C]))
        dims = np.array([2.0, rng.uniform(0.8, 2.0), rng.uniform(0.08, 0.25)])
        area = 2 * (dims[0] * dims[1] + dims[1] * dims[2] + dims[0] * dims[2])
        mesh = geometry.box_mesh(dims, float(np.sqrt(area / n)))
        mesh = geometry.Mesh(mesh.vertices @ _random_rotation(rng).T, mesh.triangles)
    else:
        mesh = geometry.make_shape(kind, n, seed)
    return geometry.normalize_unit_box(mesh)


def arap_constraints(points: np.ndarray) -> apps.DeformationConstraints:
    """Fix the lowest 5% along x, lift the highest 5% by 0.1 along z."""
    order = np.argsort(points[:, 0], kind="stable")
    k = max(1, len(points) // 20)
    fixed, handles = order[:k], order[-k:]
    return apps.DeformationConstraints(fixed, points[fixed], handles,
                                       points[handles] + np.array([0.0, 0.0, 0.1]))


# -- helpers -------------------------------------------------------------------

def _read_json(path: str):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- stages -------------------------------------------------------------------

class Run:
    """State of one benchmark run: plan, seed, work directory and results."""

    def __init__(self, workload: str, seed: int, seconds: float, size: str, work_dir: str):
        self.plan = plan_for(workload, size)
        self.seed = seed
        self.seconds = seconds
        self.work = work_dir
        self.cfg = model_mod.ModelConfig()
        self.setup_s = 0.0
        self.details: dict = {"workload": workload, "size": size}
        self.datasets: list[str] = []
        self.clouds = []
        self.samples = []
        self.net = None
        self.train_result = None
        self.train_logs = []
        self.infer_out = []

    def run_setup(self) -> None:
        """Warm-up, infer clouds and the network; repeated, median reported."""
        times = []
        for rep in range(SETUP_REPEATS):
            gc.collect()
            t0 = time.perf_counter()
            warm = os.path.join(self.work, f"warmup{rep}")
            cli.generate_dataset(warm, 1, self.seed, 150, 150, kinds=("sphere",))
            self.clouds = [(label, make_cloud(kind, n, sub_seed(self.seed, 0xC10D, i)))
                           for i, (label, kind, n) in enumerate(self.plan.clouds)]
            self.net = model_mod.LaplacianNet(self.cfg, seed=self.seed)
            first = self.clouds[0][1].vertices
            self.net.predict_pair(knn.build_knn(first, k=self.cfg.k))
            times.append(time.perf_counter() - t0)
            shutil.rmtree(warm)
        self.details["setup_warm_s"] = times
        self.setup_s = statistics.median(times)

    def _gen_call(self) -> float:
        """One generate_dataset call of one shape per kind; returns seconds."""
        out = os.path.join(self.work, f"dataset{len(self.datasets)}")
        seed = sub_seed(self.seed, 0xDA7A, len(self.datasets))
        self.datasets.append(out)
        gc.collect()
        t0 = time.perf_counter()
        cli.generate_dataset(out, len(geometry.SHAPE_KINDS), seed,
                             self.plan.resolution, self.plan.resolution)
        return time.perf_counter() - t0

    def _load(self, reps: int) -> float:
        """load_dataset of the training datasets; median seconds (set-up work)."""
        roots = self.datasets[:self.plan.train_rounds]

        def load():
            return [s for root in roots for s in cli.load_dataset(root, self.cfg)]

        times = []
        for _ in range(reps):
            gc.collect()
            t0 = time.perf_counter()
            self.samples = load()
            times.append(time.perf_counter() - t0)
        self.details.setdefault("load_s", []).extend(times)
        return statistics.median(times)

    def _train_call(self) -> float:
        """One training.train call; returns seconds."""
        tcfg = training.TrainConfig(epochs=EPOCHS)
        gc.collect()
        t0 = time.perf_counter()
        result = training.train(self.samples, self.cfg, tcfg)
        dt = time.perf_counter() - t0
        self.train_logs.append(result.log)
        self.train_result = result
        return dt

    def measure(self, traced: bool = False) -> dict:
        """A first pass over every stage, then the stage furthest behind its share.

        The first pass builds and loads the training set (loading is set-up,
        not counted) and runs every infer step on every cloud once. A traced
        measurement is that first pass and one more call of each infer step,
        so that its step times are warm like the untraced ones.
        """
        plan = self.plan
        samples = {"gen": [], "train": [], "infer": {}}
        step_s = dict.fromkeys(STEPS, 0.0)
        passes = dict.fromkeys(STEPS, 1)
        for _ in range(max(1, plan.train_rounds - len(self.datasets))):
            samples["gen"].append(self._gen_call())
        load_s = self._load(1 if traced else SETUP_REPEATS)
        self._prepare_infer()
        for step in STEPS:
            step_s[step] += self._infer_step(step, samples["infer"])
        samples["train"].append(self._train_call())

        def spent(stage):
            return sum(step_s.values()) if stage == "infer" else sum(samples[stage])

        def behind(step):
            return (step_s[step] < plan.share["infer"] * self.seconds / len(STEPS)
                    or passes[step] < MIN_PASSES)

        def pending(stage):
            if stage == "infer":
                return any(behind(step) for step in STEPS)
            return spent(stage) < plan.share[stage] * self.seconds or len(samples[stage]) < MIN_CALLS

        if traced:
            for step in STEPS:
                self._infer_step(step, samples["infer"])
        while not traced:
            todo = [stage for stage in ("gen", "train", "infer") if pending(stage)]
            if not todo:
                break
            stage = min(todo, key=lambda st: spent(st) / plan.share[st])
            if stage == "gen":
                samples["gen"].append(self._gen_call())
            elif stage == "train":
                samples["train"].append(self._train_call())
            else:
                step = min((st for st in STEPS if behind(st)), key=step_s.__getitem__)
                step_s[step] += self._infer_step(step, samples["infer"])
                passes[step] += 1
        shapes = len(geometry.SHAPE_KINDS)
        n_train = len(self.train_result.train_indices) * EPOCHS
        per_step = {key: statistics.fmean(v) for key, v in samples["infer"].items()}
        stages = {
            "load_s": load_s,
            "gen_shapes_per_s": shapes * len(samples["gen"]) / sum(samples["gen"]),
            "train_samples_per_s": n_train * len(samples["train"]) / sum(samples["train"]),
            "predict_points_per_s": sum(len(m.vertices) for _, m in self.clouds)
            / sum(v for (_, step), v in per_step.items() if step == "predict"),
        }
        for app in APPS:
            stages[f"app_{app}_s"] = sum(v for (_, step), v in per_step.items() if step == app)
        self.details["samples"] = {"gen_s": samples["gen"], "train_s": samples["train"],
                                   "infer_s": {f"{c}.{k}": v for (c, k), v
                                               in samples["infer"].items()}}
        self.details["stage_s"] = {stage: spent(stage) for stage in ("gen", "train", "infer")}
        self.details["infer_clouds"] = [
            {"cloud": item["label"], "n": len(item["mesh"].vertices),
             "levels": [lv.graph.num_vertices for lv in item["hier"].levels],
             **{step: per_step[(item["label"], step)] for step in STEPS
                if (item["label"], step) in per_step}}
            for item in self.infer_out]
        return stages

    def _prepare_infer(self) -> None:
        """Per-cloud inputs of the infer steps: heat/geodesic source, ARAP constraints."""
        self.infer_out = []
        for i, (label, mesh) in enumerate(self.clouds):
            n = len(mesh.vertices)
            u0 = np.zeros(n)
            source = int(np.random.default_rng(sub_seed(self.seed, 0x50C, i)).integers(n))
            u0[source] = 1.0
            self.infer_out.append(dict(label=label, mesh=mesh, source=source, u0=u0,
                                       constraints=arap_constraints(mesh.vertices),
                                       outputs={}, warnings=[]))

    def _infer_call(self, item: dict, step: str):
        cfg, net = self.cfg, self.net
        mesh, pts = item["mesh"], item["mesh"].vertices
        if step == "predict":
            graph = knn.build_knn(pts, k=cfg.k)
            hier = model_mod.build_hierarchy(graph, cfg)
            item.update(graph=graph, hier=hier, pair=net.predict_pair(graph, hier))
            return None
        if step == "heat":
            return apps.heat_diffuse(item["pair"], item["u0"])
        if step == "geodesic":
            return apps.geodesic_heat(mesh, item["pair"], item["source"])
        if step == "smooth":
            return apps.laplacian_smooth(pts, item["pair"]).points
        if step == "filter":
            return apps.spectral_filter(item["pair"], pts, 1.0, FILTER_MODES, residual="drop")
        return apps.arap_deform(pts, item["graph"], item["pair"], item["constraints"],
                                iters=ARAP_ITERS).points

    def _infer_step(self, step: str, samples: dict) -> float:
        """One timed call of `step` on every cloud but those in `plan.skip`.

        Returns the seconds spent.
        """
        spent = 0.0
        for item in self.infer_out:
            if (item["label"], step) in self.plan.skip:
                continue
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                gc.collect()
                t0 = time.perf_counter()
                out = self._infer_call(item, step)
                dt = time.perf_counter() - t0
            item["outputs"][step] = out
            item["warnings"] += [str(w.message) for w in caught]
            samples.setdefault((item["label"], step), []).append(dt)
            spent += dt
        return spent

    def end_to_end(self, stages: dict, quality: dict) -> dict:
        return {
            "setup_s": self.setup_s + stages["load_s"],
            "peak_rss_mb": peak_rss_mb(),
            "gen_shapes_per_s": stages["gen_shapes_per_s"],
            "train_samples_per_s": stages["train_samples_per_s"],
            "holdout_rel_err": quality["holdout_rel_err"],
            "holdout_mse": quality["holdout_mse"],
            "predict_points_per_s": stages["predict_points_per_s"],
            **{f"app_{a}_s": stages[f"app_{a}_s"] for a in APPS},
        }

    # -- quality and checks (untimed) -----------------------------------------

    def quality(self, chk: Checker) -> dict:
        result = self.train_result
        net = result.model
        held = [self.samples[int(i)] for i in result.holdout_indices]
        errs = {key: [] for key in ("learned", *QUALITY_OVERALL)}
        dead = total = 0
        for s in held:
            pair = net.predict_pair(s.graph, s.hier)
            check_pair(chk, f"holdout.{s.name}.learned", pair)
            weights, _, _ = net.forward(Tape(), s.hier)
            dead += int(np.count_nonzero(weights.data == 0.0))
            total += weights.data.size
            pairs = {"learned": pair}
            for b in BASELINES:
                pairs[b] = cli._pair_for_sample(s, b, None, None)
                check_pair(chk, f"holdout.{s.name}.{b}", pairs[b])
            for key, values in shape_errors(s, pairs).items():
                errs[key].append(values)
        out = {"holdout_rel_err": median(errs["learned"]),
               "holdout_mse": float(result.log[-1]["holdout_mse"]),
               "training.dead_edge_frac": dead / max(total, 1)}
        for key in QUALITY_OVERALL:
            out[f"quality.{key}_rel_err"] = median(errs[key])
        by_kind: dict[str, dict[str, list]] = {}
        for s in self.samples:
            pairs = {b: cli._pair_for_sample(s, b, None, None) for b in BASELINES}
            for key, values in shape_errors(s, pairs).items():
                by_kind.setdefault(s.kind, {}).setdefault(key, []).append(values)
        for kind in geometry.SHAPE_KINDS:
            for key in QUALITY_BY_KIND:
                out[f"quality.{key}_rel_err.{kind}"] = median(by_kind.get(kind, {}).get(key, []))
        return out

    def check(self, chk: Checker, quality: dict) -> None:
        self._check_datasets(chk)
        for s in self.samples:
            check_pair(chk, f"load.{s.name}.cotangent", s.gt, graph_weights=False)
        self._check_training(chk, quality)
        for item in self.infer_out:
            label, pair, out = item["label"], item["pair"], item["outputs"]
            pts = item["mesh"].vertices
            check_pair(chk, f"infer.{label}.learned", pair)
            chk.check(f"infer.{label}.no_warnings", not item["warnings"], "; ".join(item["warnings"]))
            check_heat(chk, f"infer.{label}", pair, item["u0"], out["heat"])
            check_geodesic(chk, f"infer.{label}", out["geodesic"], item["source"])
            check_smooth(chk, f"infer.{label}", pair, pts, out["smooth"])
            if "filter" in out:  # not run where plan.skip says so
                check_filter(chk, f"infer.{label}", out["filter"], pts)
            if "arap" in out:
                check_arap(chk, f"infer.{label}", out["arap"], item["constraints"])

    def _check_datasets(self, chk: Checker) -> None:
        """Re-read every written shape; probes must be eigenpairs of the stored pair."""
        from pointlap.laplacian import LaplacianPair

        for root in self.datasets:
            index = chk.guard(f"{root}.index", _read_json, os.path.join(root, "index.json"))
            if index is None:
                continue
            chk.check(f"{root}.shape_count", len(index["shapes"]) == len(geometry.SHAPE_KINDS),
                      f"{len(index['shapes'])} shapes")
            for entry in index["shapes"]:
                shape_dir = os.path.join(root, "shapes", entry["name"])
                label = f"gen.{entry['name']}"
                mesh = chk.guard(f"{label}.mesh", load_obj, os.path.join(shape_dir, "mesh.obj"))
                stiffness = chk.guard(f"{label}.stiffness", load_matrix_market,
                                      os.path.join(shape_dir, "gt_L.mtx"))
                mass = chk.guard(f"{label}.mass", load_vector, os.path.join(shape_dir, "gt_M.txt"))
                probes = chk.guard(f"{label}.probes", load_probes,
                                   os.path.join(shape_dir, "probes_spectral.probes"))
                if mesh is None or stiffness is None or mass is None or probes is None:
                    continue
                chk.check(f"{label}.sizes", stiffness.n == mesh.num_vertices == mass.size
                          == probes.values.shape[0] and probes.count == 64)
                gt = LaplacianPair(stiffness, mass, tag="cotangent")
                check_pair(chk, f"{label}.cotangent", gt, graph_weights=False)
                if gt.n <= DENSE_ORACLE_MAX_N:
                    check_stored_probes(chk, label, gt, probes)

    def _check_training(self, chk: Checker, quality: dict) -> None:
        for c, log in enumerate(self.train_logs):
            finite = all(np.isfinite(v) for row in log for k, v in row.items() if k != "epoch")
            chk.check(f"train.call{c}.log_finite", finite)
            chk.check(f"train.call{c}.reproducible", log == self.train_logs[0],
                      "training log differs from the first call")
        for key in ("holdout_rel_err", "holdout_mse"):
            chk.check(f"train.{key}_finite", np.isfinite(quality[key]) and quality[key] > 0,
                      repr(quality[key]))

    def hierarchy_stats(self) -> dict:
        levels = [[lv.graph.num_vertices for lv in s.hier.levels] for s in self.samples]
        levels += [[lv.graph.num_vertices for lv in item["hier"].levels] for item in self.infer_out]
        sums = np.sum(np.array(levels, dtype=np.float64), axis=0)
        return {"model.level_sizes": float(sums.sum() / sums[0]),
                "model.level0_points": float(sums[0]),
                "model.level1_points": float(sums[1]),
                "model.level2_points": float(sums[2]),
                "model.pool_ratio_l1": float(sums[1] / sums[0]),
                "model.pool_ratio_l2": float(sums[2] / sums[1])}
