"""Command-line pipeline: dataset generation, training, prediction, eval, apps.

Each command, and each app under ``app``, declares only the options it
reads, so any other option is a usage error (exit 2). So is an option that
only another operator or mode reads, as marked below. Besides --threads:

  gen           --out --num-shapes --seed --config
  train         --dataset --out --epochs --limit --seed --config --paper-scale
  predict       --checkpoint --cloud --out --normalize
  eval          --dataset --out --limit, and --checkpoint
                or --baseline [--heat-t (heat only)] [--config]
  app heat      --source --steps --dt
  app geodesic  --source
  app smooth    --step --iters
  app filter    --n-modes --mode [--band-start (amplify only)]
  app arap      --constraints --iters
  (every app)   --out --mesh --cloud, and --checkpoint or --operator,
                with --k read only by --operator uniform|heat
                and --heat-t only by --operator heat

Heavy imports happen inside the command functions so --threads can cap the
BLAS pools before numpy loads.
"""
from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
import time
from dataclasses import fields, replace

__version__ = "0.1.0"

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS")


def _apply_threads(threads: int | None) -> None:
    if threads is not None:
        for var in _THREAD_VARS:
            os.environ[var] = str(threads)


def _read_config(path: str | None) -> configparser.ConfigParser:
    cfg = configparser.ConfigParser()
    if path:
        if not os.path.exists(path):
            raise FileNotFoundError(path)
        cfg.read(path)
    return cfg


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _ints(text: str) -> tuple:
    return tuple(int(tok) for tok in text.replace(",", " ").split())


def write_manifest(out_dir: str, command: str, args: dict, outputs: list,
                   wall_time: float, config: dict | None = None) -> str:
    """Atomic run manifest next to the outputs; enough to replay the run.

    `args` is the parsed namespace as a dict; only the options the parser
    declares are recorded, not the `fn` dispatch callback that
    ``set_defaults`` adds. "seed" is the --seed of the commands that declare
    one (gen, train) and null for the others. The numpy, scipy and Python versions in effect are
    recorded under "versions", and the process's peak resident set so far
    under "peak_rss_mb" (`ru_maxrss`, which Linux reports in KiB and macOS
    in bytes).
    """
    import platform
    import resource

    import numpy
    import scipy

    manifest = {
        "command": command,
        "args": {k: v for k, v in sorted(args.items()) if not callable(v)},
        "seed": args.get("seed"),
        "config": config or {},
        "version": __version__,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__,
                     "python": platform.python_version()},
        "wall_time_s": wall_time,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / (1024.0 ** 2 if sys.platform == "darwin" else 1024.0),
        "outputs": sorted(str(p) for p in outputs),
    }
    path = os.path.join(out_dir, "run_manifest.json")
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return path


def _section(cfg: configparser.ConfigParser, section: str, known) -> dict:
    """The keys INI `section` sets; a key outside `known` raises, and so does
    `seed`, which comes only from --seed."""
    if not cfg.has_section(section):
        return {}
    sec = dict(cfg[section])
    for key in sec:
        if key == "seed":
            raise ValueError(f"[{section}] seed: set the seed with --seed")
        if key not in known:
            raise ValueError(f"[{section}] unknown key {key!r}; known keys: "
                             f"{', '.join(sorted(known))}")
    return sec


def _from_section(cfg: configparser.ConfigParser, section: str, base):
    """`base` with every field that INI `section` sets."""
    names = {f.name for f in fields(base)} - {"seed"}
    values = {}
    for name, text in _section(cfg, section, names).items():
        default = getattr(base, name)
        values[name] = (_ints if isinstance(default, tuple) else type(default))(text)
    return replace(base, **values)


def model_config_from_ini(cfg: configparser.ConfigParser, paper_scale: bool = False):
    from .model import ModelConfig

    return _from_section(cfg, "model", ModelConfig.paper_scale() if paper_scale else ModelConfig())


def train_config_from_ini(cfg: configparser.ConfigParser, seed: int,
                          paper_scale: bool = False):
    from .training import TrainConfig

    base = TrainConfig.paper_scale(seed) if paper_scale else TrainConfig(seed=seed)
    return _from_section(cfg, "training", base)


# -- dataset ------------------------------------------------------------------

def generate_dataset(out_dir: str, num_shapes: int, seed: int,
                     min_resolution: int = 500, max_resolution: int = 900,
                     kinds: tuple | None = None) -> dict:
    """Write shapes with ground truth and spectral probes; returns the index."""
    import numpy as np

    from .geometry import SHAPE_KINDS, make_shape, normalize_unit_box, points_from_mesh
    from .laplacian import cotangent_laplacian
    from .meshio import save_obj, save_ply
    from .probes import save_probes, spectral_probes
    from .sparse import save_matrix_market, save_vector

    kinds = tuple(kinds) if kinds else SHAPE_KINDS
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xD5ED]))
    os.makedirs(os.path.join(out_dir, "shapes"), exist_ok=True)
    index = {"seed": seed, "kinds": list(kinds), "shapes": []}
    for i in range(num_shapes):
        kind = kinds[i % len(kinds)]
        resolution = int(rng.integers(min_resolution, max_resolution + 1))
        shape_seed = seed * 1_000_003 + i
        mesh = normalize_unit_box(make_shape(kind, resolution, shape_seed))
        name = f"{kind}_{i:04d}"
        shape_dir = os.path.join(out_dir, "shapes", name)
        os.makedirs(shape_dir, exist_ok=True)
        gt = cotangent_laplacian(mesh)
        probes = spectral_probes(gt, count=64)
        save_obj(os.path.join(shape_dir, "mesh.obj"), mesh)
        save_ply(os.path.join(shape_dir, "points.ply"), points_from_mesh(mesh), binary=True)
        save_matrix_market(os.path.join(shape_dir, "gt_L.mtx"), gt.stiffness)
        save_vector(os.path.join(shape_dir, "gt_M.txt"), gt.mass)
        save_probes(os.path.join(shape_dir, "probes_spectral.probes"), probes)
        index["shapes"].append({
            "name": name, "kind": kind, "resolution": resolution,
            "seed": shape_seed, "n_vertices": mesh.num_vertices,
        })
    tmp = os.path.join(out_dir, "index.json.tmp")
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump(index, f, indent=1, sort_keys=True)
    os.replace(tmp, os.path.join(out_dir, "index.json"))
    return index


def load_dataset(dataset_dir: str, model_cfg=None, limit: int | None = None) -> list:
    """Read the first `limit` shapes (all when None) back into TrainingSamples;
    validates ground-truth row sums and masses."""
    if limit is not None and limit < 1:
        raise ValueError(f"limit must be at least 1, got {limit}")
    import numpy as np

    from .knn import build_knn
    from .laplacian import LaplacianPair
    from .meshio import load_obj
    from .model import ModelConfig, build_hierarchy
    from .probes import load_probes
    from .sparse import load_matrix_market, load_vector, spmv
    from .training import TrainingSample

    model_cfg = model_cfg or ModelConfig()
    with open(os.path.join(dataset_dir, "index.json"), "r", encoding="utf-8") as f:
        index = json.load(f)
    samples = []
    shapes = index["shapes"] if limit is None else index["shapes"][:limit]
    for entry in shapes:
        shape_dir = os.path.join(dataset_dir, "shapes", entry["name"])
        mesh = load_obj(os.path.join(shape_dir, "mesh.obj"))
        stiffness = load_matrix_market(os.path.join(shape_dir, "gt_L.mtx"))
        mass = load_vector(os.path.join(shape_dir, "gt_M.txt"))
        if mass.shape != (stiffness.n,) or not np.all(np.isfinite(mass)) or np.any(mass <= 0):
            raise ValueError(f"{entry['name']}: ground-truth masses must be {stiffness.n} "
                             "finite positive values")
        row_sums = spmv(stiffness, np.ones(stiffness.n))
        scale = max(np.abs(stiffness.data).max(), 1e-300)
        if np.abs(row_sums).max() > 1e-9 * scale:
            raise ValueError(f"{entry['name']}: ground-truth stiffness rows do not sum to zero")
        gt = LaplacianPair(stiffness, mass, tag="cotangent")
        probes = load_probes(os.path.join(shape_dir, "probes_spectral.probes"))
        graph = build_knn(mesh.vertices, k=model_cfg.k)
        hier = build_hierarchy(graph)
        samples.append(TrainingSample(entry["name"], entry["kind"], mesh.vertices.copy(),
                                      hier, gt, probes))
    return samples


# -- commands -----------------------------------------------------------------

class UsageError(Exception):
    """A command line the parser accepts but the command cannot run (exit 2)."""


def cmd_gen(args) -> int:
    t0 = time.perf_counter()
    from .geometry import SHAPE_KINDS

    cfg = _read_config(args.config)
    sec = _section(cfg, "dataset", ("num_shapes", "kinds", "min_resolution", "max_resolution"))
    num = args.num_shapes if args.num_shapes is not None else int(sec.get("num_shapes", 20))
    lo = int(sec.get("min_resolution", 500))
    hi = int(sec.get("max_resolution", 900))
    kinds = tuple(sec.get("kinds", "").replace(",", " ").split()) or None
    if num < 1:
        raise ValueError(f"[dataset] num_shapes must be at least 1, got {num}")
    if lo < 1:
        raise ValueError(f"[dataset] min_resolution must be at least 1, got {lo}")
    if hi < lo:
        raise ValueError(f"[dataset] max_resolution must be at least min_resolution {lo}, "
                         f"got {hi}")
    for kind in kinds or ():
        if kind not in SHAPE_KINDS:
            raise ValueError(f"[dataset] kinds: unknown kind {kind!r}; known kinds: "
                             f"{', '.join(SHAPE_KINDS)}")
    index = generate_dataset(args.out, num, args.seed, min_resolution=lo, max_resolution=hi,
                             kinds=kinds)
    outputs = [os.path.join(args.out, "index.json")]
    write_manifest(args.out, "gen", vars(args), outputs,
                   time.perf_counter() - t0, {"num_shapes": num})
    print(f"wrote {len(index['shapes'])} shapes to {args.out}")
    return 0


def cmd_train(args) -> int:
    t0 = time.perf_counter()
    cfg = _read_config(args.config)
    model_cfg = model_config_from_ini(cfg, args.paper_scale)
    train_cfg = train_config_from_ini(cfg, args.seed, args.paper_scale)
    if args.epochs is not None:
        train_cfg = replace(train_cfg, epochs=args.epochs)
    samples = load_dataset(args.dataset, model_cfg, limit=args.limit)
    os.makedirs(args.out, exist_ok=True)

    from .training import TrainingDiverged, train, write_log_csv

    log_path = os.path.join(args.out, "log.csv")
    try:
        result = train(samples, model_cfg, train_cfg, out_dir=args.out)
    except TrainingDiverged as exc:
        dump = os.path.join(args.out, "diverged.json")
        with open(dump, "w", encoding="utf-8") as f:
            json.dump({"error": str(exc)}, f)
        print(f"error: {exc} (diagnostics in {dump})", file=sys.stderr)
        return 1
    write_log_csv(log_path, result.log)
    outputs = [log_path, os.path.join(args.out, "checkpoint_final")]
    write_manifest(args.out, "train", vars(args), outputs,
                   time.perf_counter() - t0,
                   {"model": model_cfg.to_dict(), "training": train_cfg.to_dict(),
                    "level_points": [sum(s.hier.levels[i].graph.num_vertices for s in samples)
                                     for i in range(3)]})
    final = result.log[-1]
    print(f"trained {train_cfg.epochs} epochs: total loss {final['loss_total']:.4f}, "
          f"holdout MSE {final['holdout_mse']:.4f}")
    return 0


def cmd_predict(args) -> int:
    t0 = time.perf_counter()
    import numpy as np

    from .geometry import normalize_unit_box
    from .knn import build_knn
    from .meshio import load_mesh
    from .model import build_hierarchy, load_model
    from .sparse import save_matrix_market, save_vector

    model, _ = load_model(args.checkpoint)
    mesh = load_mesh(args.cloud)
    if args.normalize:
        mesh = normalize_unit_box(mesh)
    t_knn = time.perf_counter()
    graph = build_knn(mesh.vertices, k=model.config.k)
    t_hier = time.perf_counter()
    hier = build_hierarchy(graph)
    t_fwd = time.perf_counter()
    pair = model.predict_pair(graph, hier)
    stage_s = {"knn": t_hier - t_knn, "hierarchy": t_fwd - t_hier,
               "forward_assemble": time.perf_counter() - t_fwd}
    # operator health: dead edges (stored zero weights) can split the operator
    w = pair.edges()[2]
    dead_fraction = float(np.mean(w == 0.0)) if w.size else 0.0
    components = int(pair.components()[0])
    os.makedirs(args.out, exist_ok=True)
    l_path = os.path.join(args.out, "L.mtx")
    m_path = os.path.join(args.out, "M.txt")
    save_matrix_market(l_path, pair.stiffness)
    save_vector(m_path, pair.mass)
    sidecar = os.path.join(args.out, "pair.json")
    with open(sidecar, "w", encoding="utf-8") as f:
        json.dump({"tag": pair.tag, "n": pair.n, "k": model.config.k,
                   "sparsity": pair.sparsity(),
                   "dead_edge_fraction": dead_fraction, "components": components,
                   "levels": [level.graph.num_vertices for level in hier.levels],
                   "voxel_sizes": [pool.voxel_size for pool in hier.pools],
                   "stage_s": stage_s}, f, indent=1, sort_keys=True)
    write_manifest(args.out, "predict", vars(args), [l_path, m_path, sidecar],
                   time.perf_counter() - t0)
    print(f"predicted operator for {pair.n} points -> {args.out}")
    return 0


def _pair_for_sample(sample, source: str, model, heat_t: float | None):
    from .laplacian import heat_kernel_laplacian, uniform_laplacian

    if source == "learned":
        return model.predict_pair(sample.graph, sample.hier)
    if source == "uniform":
        return uniform_laplacian(sample.graph)
    if source == "heat":
        return heat_kernel_laplacian(sample.graph, heat_t)
    if source == "cotangent":
        return sample.gt
    raise ValueError(f"unknown operator source {source!r}")


def cmd_eval(args) -> int:
    t0 = time.perf_counter()
    if args.heat_t is not None and args.baseline != "heat":
        raise UsageError("--heat-t is read only by --baseline heat")
    if args.config and args.checkpoint:
        raise UsageError("--config is read only with --baseline; the checkpoint holds its model")
    cfg = _read_config(args.config)
    model = None
    if args.checkpoint:
        from .model import load_model
        model, _ = load_model(args.checkpoint)
        model_cfg = model.config
        source = "learned"
    else:
        model_cfg = model_config_from_ini(cfg)
        source = args.baseline
    samples = load_dataset(args.dataset, model_cfg, limit=args.limit)

    from .probes import eval_probe_set
    from .training import evaluate

    os.makedirs(args.out, exist_ok=True)
    rows = []
    for s in samples:
        pair = _pair_for_sample(s, source, model, args.heat_t)
        probes = eval_probe_set(s.gt, s.points, spectral=s.spectral)
        res = evaluate(pair, s.gt, probes)
        rows.append((s.kind, s.name, res.mse, res.r_gt1, res.sparsity))

    path = os.path.join(args.out, "metrics.csv")
    with open(path, "w", encoding="ascii") as f:
        f.write("category,name,mse,r_gt1,sparsity\n")
        for kind, name, mse, r, sp in rows:
            f.write(f"{kind},{name},{float(mse)!r},{float(r)!r},{float(sp)!r}\n")
        by_kind: dict[str, list] = {}
        for kind, _, mse, r, sp in rows:
            by_kind.setdefault(kind, []).append((mse, r, sp))
        import numpy as np
        for kind in sorted(by_kind):
            m = np.mean(by_kind[kind], axis=0)
            f.write(f"{kind},(mean),{float(m[0])!r},{float(m[1])!r},{float(m[2])!r}\n")
        m = np.mean([(r[2], r[3], r[4]) for r in rows], axis=0)
        f.write(f"total,,{float(m[0])!r},{float(m[1])!r},{float(m[2])!r}\n")
    write_manifest(args.out, "eval", vars(args), [path], time.perf_counter() - t0)
    print(f"evaluated {len(rows)} shapes with source={source}: "
          f"total mse {m[0]:.4f}, r>1 {m[1]:.3%}, sparsity {m[2]:.2f}")
    return 0


# -- apps ---------------------------------------------------------------------

def _app_inputs(args, source: int | None = None):
    """The --mesh (else --cloud) geometry, which `source` must index when
    given, and the --checkpoint or --operator pair on it. --k or --heat-t
    given to an operator that does not read it is a usage error."""
    from .knn import build_knn
    from .laplacian import cotangent_laplacian, heat_kernel_laplacian, uniform_laplacian
    from .meshio import load_mesh

    operator = "learned" if args.checkpoint else args.operator
    if args.k is not None and operator not in ("uniform", "heat"):
        raise UsageError("--k is read only by --operator uniform|heat")
    if args.heat_t is not None and operator != "heat":
        raise UsageError("--heat-t is read only by --operator heat")
    if not (args.mesh or args.cloud):
        raise UsageError("--mesh or --cloud is required")
    mesh = load_mesh(args.mesh or args.cloud)
    if source is not None and not 0 <= source < mesh.num_vertices:
        raise UsageError(f"--source must lie in [0, {mesh.num_vertices})")
    if args.checkpoint:
        from .model import load_model
        model, _ = load_model(args.checkpoint)
        return mesh, model.predict_pair(build_knn(mesh.vertices, k=model.config.k))
    if args.operator == "cotangent":
        if mesh.num_triangles == 0:
            raise UsageError("cotangent operator needs a triangle mesh")
        return mesh, cotangent_laplacian(mesh)
    graph = build_knn(mesh.vertices, k=8 if args.k is None else args.k)
    if args.operator == "uniform":
        return mesh, uniform_laplacian(graph)
    return mesh, heat_kernel_laplacian(graph, args.heat_t)


def _app_finish(args, t0: float, stem: str, points, field=None) -> int:
    """Write `points` to OUT/stem.ply, colored by `field` when given, whose
    values then also go to OUT/stem.csv; then the run manifest."""
    from .meshio import save_ply, scalar_to_colors

    os.makedirs(args.out, exist_ok=True)
    outputs = [os.path.join(args.out, stem + ".ply")]
    if field is None:
        save_ply(outputs[0], points)
    else:
        save_ply(outputs[0], points, colors=scalar_to_colors(field))
        outputs.append(os.path.join(args.out, stem + ".csv"))
        with open(outputs[1], "w", encoding="ascii") as f:
            f.write("vertex,value\n")
            for i, val in enumerate(field):
                f.write(f"{i},{float(val)!r}\n")
    write_manifest(args.out, f"app {args.subcommand}", vars(args), outputs,
                   time.perf_counter() - t0)
    print(f"app {args.subcommand}: wrote {len(outputs)} files to {args.out}")
    return 0


def app_heat(args) -> int:
    t0 = time.perf_counter()
    import numpy as np

    from .apps import heat_diffuse

    mesh, pair = _app_inputs(args, args.source)
    u0 = np.zeros(pair.n)
    u0[args.source] = 1.0
    u = heat_diffuse(pair, u0, dt=args.dt, steps=args.steps)
    return _app_finish(args, t0, "heat", mesh.vertices, u)


def app_geodesic(args) -> int:
    t0 = time.perf_counter()
    from .apps import geodesic_heat

    mesh, pair = _app_inputs(args, args.source)
    if mesh.num_triangles == 0:
        raise UsageError("geodesic needs a companion triangle mesh")
    phi = geodesic_heat(mesh, pair, args.source)
    return _app_finish(args, t0, "geodesic", mesh.vertices, phi)


def app_smooth(args) -> int:
    t0 = time.perf_counter()
    from .apps import laplacian_smooth

    mesh, pair = _app_inputs(args)
    cloud = laplacian_smooth(mesh.vertices, pair, step=args.step, iters=args.iters)
    return _app_finish(args, t0, "smoothed", cloud)


def app_filter(args) -> int:
    t0 = time.perf_counter()
    import numpy as np

    from .apps import spectral_filter

    band_start = 10 if args.band_start is None else args.band_start
    if args.band_start is not None and args.mode != "amplify":
        raise UsageError("--band-start is read only by --mode amplify")
    if args.mode == "amplify" and not 0 <= band_start < args.n_modes:
        raise UsageError(f"--band-start must lie in [0, {args.n_modes})")
    mesh, pair = _app_inputs(args)
    if args.mode == "amplify":
        gains = np.ones(args.n_modes)
        gains[band_start:] = 2.0
    else:
        gains = 0.7 if args.mode == "highpass" else 1.0
    residual = "drop" if args.mode == "lowpass" else "keep"
    filtered = spectral_filter(pair, mesh.vertices, gains, args.n_modes, residual=residual)
    return _app_finish(args, t0, "filtered", filtered)


def app_arap(args) -> int:
    t0 = time.perf_counter()
    import numpy as np

    from .apps import DeformationConstraints, arap_deform

    if args.constraints is None:
        raise UsageError("arap needs --constraints")
    mesh, pair = _app_inputs(args)
    points = mesh.vertices
    with open(args.constraints, "r", encoding="utf-8") as f:
        spec = json.load(f)
    if not isinstance(spec, dict) or "fixed" not in spec:
        raise ValueError(f"{args.constraints}: no \"fixed\" key")
    fixed = np.asarray(spec["fixed"], dtype=np.int64).reshape(-1)
    if fixed.size and (fixed.min() < 0 or fixed.max() >= len(points)):
        raise ValueError(f"{args.constraints}: \"fixed\" indices must lie in [0, {len(points)})")
    handles = np.asarray(spec.get("handle_indices", []), dtype=np.int64)
    targets = np.asarray(spec.get("handle_targets", []), dtype=np.float64).reshape(-1, 3)
    constraints = DeformationConstraints(fixed, points[fixed], handles, targets)
    cloud = arap_deform(points, None, pair, constraints, iters=args.iters)
    return _app_finish(args, t0, "deformed", cloud)


# -- parser -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pointlap",
        description="Learned Laplacian operators for point clouds on KNN graphs.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--threads", type=_positive_int, help="BLAS threads (every command)")

    p = sub.add_parser("gen", parents=[common], help="generate a synthetic dataset")
    p.add_argument("--out", required=True, help="dataset directory")
    p.add_argument("--num-shapes", type=_positive_int, help="default: [dataset] num_shapes or 20")
    p.add_argument("--seed", type=int, default=0, help="seed of the shapes and resolutions")
    p.add_argument("--config", help="INI file; gen reads [dataset]")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("train", parents=[common], help="train the operator network")
    p.add_argument("--dataset", required=True, help="directory written by gen")
    p.add_argument("--out", required=True, help="run directory: log and checkpoints")
    p.add_argument("--epochs", type=_positive_int, help="default: [training] epochs")
    p.add_argument("--limit", type=_positive_int, help="use only the first N shapes")
    p.add_argument("--seed", type=int, default=0, help="seed of init, split, shuffle, probes")
    p.add_argument("--config", help="INI file; train reads [model] and [training]")
    p.add_argument("--paper-scale", action="store_true",
                   help="start from the published network and training sizes")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("predict", parents=[common], help="predict L and M for a point cloud")
    p.add_argument("--checkpoint", required=True, help="checkpoint directory written by train")
    p.add_argument("--cloud", required=True, help="input cloud or mesh (.ply, .obj)")
    p.add_argument("--out", required=True, help="directory for L.mtx, M.txt and pair.json")
    p.add_argument("--normalize", action="store_true", help="fit the cloud into the unit box")
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("eval", parents=[common], help="evaluate an operator source on a dataset")
    p.add_argument("--dataset", required=True, help="directory written by gen")
    p.add_argument("--out", required=True, help="directory for metrics.csv")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--checkpoint", help="evaluate this checkpoint's learned operator")
    group.add_argument("--baseline", choices=("uniform", "heat", "cotangent"),
                       help="evaluate this baseline operator")
    p.add_argument("--heat-t", type=float, help="heat-kernel time, read only by --baseline heat")
    p.add_argument("--limit", type=_positive_int, help="use only the first N shapes")
    p.add_argument("--config", help="INI file; a --baseline reads [model] k")
    p.set_defaults(fn=cmd_eval)

    shared = argparse.ArgumentParser(add_help=False, parents=[common])
    shared.add_argument("--out", required=True, help="output directory")
    shared.add_argument("--mesh", help="input mesh (.obj, .ply)")
    shared.add_argument("--cloud", help="input cloud, read when --mesh is not given")
    group = shared.add_mutually_exclusive_group()
    group.add_argument("--checkpoint", help="use this checkpoint's learned operator")
    group.add_argument("--operator", choices=("cotangent", "uniform", "heat"), default="cotangent",
                       help="operator used without --checkpoint (default: cotangent)")
    shared.add_argument("--k", type=int,
                        help="KNN size, read only by --operator uniform|heat (default: 8)")
    shared.add_argument("--heat-t", type=float,
                        help="heat-kernel time, read only by --operator heat")
    apps = sub.add_parser("app", help="run a geometry-processing application").add_subparsers(
        dest="subcommand", required=True)

    p = apps.add_parser("heat", parents=[shared], help="heat diffusion from one vertex")
    p.add_argument("--source", type=int, default=0, help="vertex holding the initial heat")
    p.add_argument("--steps", type=int, default=1000, help="explicit Euler steps")
    p.add_argument("--dt", type=float, default=1e-3, help="time step")
    p.set_defaults(fn=app_heat)

    p = apps.add_parser("geodesic", parents=[shared], help="heat-method geodesic distance")
    p.add_argument("--source", type=int, default=0, help="vertex the distance starts from")
    p.set_defaults(fn=app_geodesic)

    p = apps.add_parser("smooth", parents=[shared], help="Laplacian smoothing of positions")
    p.add_argument("--step", type=float, default=0.5, help="diffusion step in (0, 1]")
    p.add_argument("--iters", type=int, default=10, help="smoothing iterations")
    p.set_defaults(fn=app_smooth)

    p = apps.add_parser("filter", parents=[shared], help="spectral filtering of positions")
    p.add_argument("--n-modes", type=int, default=20, help="eigenmodes filtered")
    p.add_argument("--mode", choices=("lowpass", "highpass", "amplify", "allpass"),
                   default="lowpass", help="how the first --n-modes modes are rescaled")
    p.add_argument("--band-start", type=int,
                   help="first mode doubled, read only by --mode amplify (default: 10)")
    p.set_defaults(fn=app_filter)

    p = apps.add_parser("arap", parents=[shared], help="as-rigid-as-possible deformation")
    p.add_argument("--constraints", help="JSON: fixed, handle_indices, handle_targets")
    p.add_argument("--iters", type=int, default=10, help="local/global iterations")
    p.set_defaults(fn=app_arap)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _apply_threads(args.threads)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
