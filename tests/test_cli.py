import argparse
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from pointlap.cli import load_dataset, main
from pointlap.model import ModelConfig

TINY_CFG = """
[model]
enc_channels = 16,16,16
dec_channels = 16,16,16
blocks = 1,1,1
mlp_hidden = 16

[dataset]
num_shapes = 3
min_resolution = 120
max_resolution = 180

[training]
epochs = 2
batch_size = 2
spectral_count = 8
holdout_fraction = 0.34
checkpoint_every = 0
"""


@pytest.fixture(scope="module")
def tiny_cfg_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "tiny.ini"
    path.write_text(TINY_CFG)
    return str(path)


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory, tiny_cfg_file):
    out = str(tmp_path_factory.mktemp("data") / "ds")
    rc = main(["gen", "--out", out, "--seed", "3", "--config", tiny_cfg_file,
               "--threads", "1"])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def checkpoint_dir(tmp_path_factory, dataset_dir, tiny_cfg_file):
    out = str(tmp_path_factory.mktemp("run") / "train")
    rc = main(["train", "--dataset", dataset_dir, "--out", out,
               "--seed", "0", "--config", tiny_cfg_file, "--threads", "1"])
    assert rc == 0
    return os.path.join(out, "checkpoint_final")


def test_gen_layout(dataset_dir):
    with open(os.path.join(dataset_dir, "index.json")) as f:
        index = json.load(f)
    assert len(index["shapes"]) == 3
    for entry in index["shapes"]:
        shape_dir = os.path.join(dataset_dir, "shapes", entry["name"])
        for fname in ("mesh.obj", "points.ply", "gt_L.mtx", "gt_M.txt",
                      "probes_spectral.probes"):
            assert os.path.exists(os.path.join(shape_dir, fname)), fname
    assert os.path.exists(os.path.join(dataset_dir, "run_manifest.json"))


def test_gen_manifest_records_declared_options(tiny_cfg_file, tmp_path):
    out = str(tmp_path / "ds")
    assert main(["gen", "--out", out, "--seed", "5", "--threads", "1",
                 "--config", tiny_cfg_file, "--num-shapes", "1"]) == 0
    with open(os.path.join(out, "run_manifest.json")) as f:
        manifest = json.load(f)
    args = manifest["args"]
    assert set(args) == {"command", "out", "seed", "threads", "config", "num_shapes"}
    assert (args["out"], args["seed"], args["threads"]) == (out, 5, 1)
    assert (args["config"], args["num_shapes"]) == (tiny_cfg_file, 1)
    assert not any(callable(v) for v in args.values())
    assert json.loads(json.dumps(args)) == args


def test_manifest_records_software_versions(tiny_cfg_file, tmp_path):
    import platform

    import scipy

    out = str(tmp_path / "ds")
    assert main(["gen", "--out", out, "--seed", "5", "--threads", "1",
                 "--config", tiny_cfg_file, "--num-shapes", "1"]) == 0
    with open(os.path.join(out, "run_manifest.json")) as f:
        versions = json.load(f)["versions"]
    assert versions == {"numpy": np.__version__, "scipy": scipy.__version__,
                        "python": platform.python_version()}


def test_gen_rerun_identical_index(dataset_dir, tiny_cfg_file, tmp_path):
    out2 = str(tmp_path / "ds2")
    assert main(["gen", "--out", out2, "--seed", "3", "--config", tiny_cfg_file]) == 0
    a = open(os.path.join(dataset_dir, "index.json"), "rb").read()
    b = open(os.path.join(out2, "index.json"), "rb").read()
    assert a == b


def test_load_validates_row_sums(dataset_dir, tmp_path):
    import shutil

    broken = str(tmp_path / "broken")
    shutil.copytree(dataset_dir, broken)
    with open(os.path.join(broken, "index.json")) as f:
        name = json.load(f)["shapes"][0]["name"]
    mtx = os.path.join(broken, "shapes", name, "gt_L.mtx")
    lines = open(mtx).read().splitlines()
    head, (i, j, v) = lines[:2], lines[2].split()
    lines[2] = f"{i} {j} {float(v) + 0.5!r}"
    open(mtx, "w").write("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        load_dataset(broken, ModelConfig())


def test_load_validates_mass_length(dataset_dir, tmp_path):
    import shutil

    broken = str(tmp_path / "broken")
    shutil.copytree(dataset_dir, broken)
    with open(os.path.join(broken, "index.json")) as f:
        name = json.load(f)["shapes"][0]["name"]
    mass = os.path.join(broken, "shapes", name, "gt_M.txt")
    lines = open(mass).read().splitlines()
    open(mass, "w").write("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ValueError):
        load_dataset(broken, ModelConfig())


def test_train_outputs(checkpoint_dir):
    run_dir = os.path.dirname(checkpoint_dir)
    log = open(os.path.join(run_dir, "log.csv")).read().splitlines()
    assert log[0] == "epoch,lr,loss_laplacian,loss_mass,loss_total,holdout_mse"
    assert len(log) == 3
    assert os.path.exists(os.path.join(checkpoint_dir, "manifest.json"))
    manifest = json.load(open(os.path.join(run_dir, "run_manifest.json")))
    assert manifest["command"] == "train"
    assert manifest["seed"] == 0
    points = manifest["config"]["level_points"]
    assert len(points) == 3
    assert points[0] > points[1] > points[2] > 0


def test_predict_round_trip(checkpoint_dir, dataset_dir, tmp_path):
    from pointlap.sparse import load_matrix_market

    with open(os.path.join(dataset_dir, "index.json")) as f:
        name = json.load(f)["shapes"][0]["name"]
    cloud = os.path.join(dataset_dir, "shapes", name, "points.ply")
    out = str(tmp_path / "pred")
    rc = main(["predict", "--checkpoint", checkpoint_dir, "--cloud", cloud,
               "--out", out, "--threads", "1"])
    assert rc == 0
    stiffness = load_matrix_market(os.path.join(out, "L.mtx"))
    assert stiffness.max_asymmetry() == 0.0
    sidecar = json.load(open(os.path.join(out, "pair.json")))
    assert sidecar["tag"] == "learned"
    assert sidecar["n"] == stiffness.n
    levels = sidecar["levels"]
    assert levels[0] == sidecar["n"]
    assert all(a >= b for a, b in zip(levels, levels[1:]))
    voxels = sidecar["voxel_sizes"]
    assert len(voxels) == 2
    assert voxels[0] > 0
    assert voxels[1] == 2.0 * voxels[0]
    assert set(sidecar["stage_s"]) == {"knn", "hierarchy", "forward_assemble"}
    assert all(t >= 0 for t in sidecar["stage_s"].values())
    assert 0.0 <= sidecar["dead_edge_fraction"] <= 1.0
    assert sidecar["components"] >= 1


def test_predict_manifest_records_peak_rss(checkpoint_dir, dataset_dir, tmp_path):
    import resource

    with open(os.path.join(dataset_dir, "index.json")) as f:
        name = json.load(f)["shapes"][0]["name"]
    cloud = os.path.join(dataset_dir, "shapes", name, "points.ply")
    out = str(tmp_path / "pred")
    assert main(["predict", "--checkpoint", checkpoint_dir, "--cloud", cloud,
                 "--out", out]) == 0
    manifest = json.load(open(os.path.join(out, "run_manifest.json")))
    # the peak of this process so far: positive, and no later reading is lower
    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    assert 0.0 < manifest["peak_rss_mb"] <= after


def test_predict_rejects_checkpoint_with_unknown_config(checkpoint_dir, dataset_dir,
                                                        tmp_path, capsys):
    import shutil

    old = str(tmp_path / "old_checkpoint")
    shutil.copytree(checkpoint_dir, old)
    manifest_path = os.path.join(old, "manifest.json")
    manifest = json.load(open(manifest_path))
    manifest["extra"]["config"]["first_voxel_size"] = 1.0 / 16.0
    json.dump(manifest, open(manifest_path, "w"))
    with open(os.path.join(dataset_dir, "index.json")) as f:
        name = json.load(f)["shapes"][0]["name"]
    cloud = os.path.join(dataset_dir, "shapes", name, "points.ply")
    rc = main(["predict", "--checkpoint", old, "--cloud", cloud,
               "--out", str(tmp_path / "pred")])
    assert rc == 1
    assert "first_voxel_size" in capsys.readouterr().err


@pytest.mark.parametrize("command,section,key", [
    ("train", "model", "voxel_size"),
    ("train", "training", "epoch"),
    ("train", "training", "seed"),
    ("gen", "dataset", "num_shape"),
])
def test_ini_rejects_unknown_keys(dataset_dir, tmp_path, capsys, command, section, key):
    cfg = tmp_path / "typo.ini"
    cfg.write_text(f"[{section}]\n{key} = 3\n")
    out = str(tmp_path / "out")
    argv = [command, "--out", out, "--config", str(cfg)]
    if command == "train":
        argv += ["--dataset", dataset_dir]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"[{section}]" in err and key in err
    if key == "seed":
        assert "--seed" in err
    assert not os.path.exists(out)


def test_eval_schema_and_total(dataset_dir, tiny_cfg_file, tmp_path):
    out = str(tmp_path / "eval")
    rc = main(["eval", "--dataset", dataset_dir, "--out", out,
               "--baseline", "uniform", "--config", tiny_cfg_file])
    assert rc == 0
    lines = open(os.path.join(out, "metrics.csv")).read().splitlines()
    assert lines[0] == "category,name,mse,r_gt1,sparsity"
    assert lines[-1].startswith("total,,")
    per_shape = [ln for ln in lines[1:] if "(mean)" not in ln and not ln.startswith("total")]
    assert len(per_shape) == 3
    for ln in per_shape:
        cat, name, mse, r, sp = ln.split(",")
        assert 0.0 <= float(mse) <= 1.0
        assert 9.0 <= float(sp) <= 11.0


def test_eval_cotangent_is_exact(dataset_dir, tiny_cfg_file, tmp_path):
    out = str(tmp_path / "evalc")
    rc = main(["eval", "--dataset", dataset_dir, "--out", out,
               "--baseline", "cotangent", "--config", tiny_cfg_file])
    assert rc == 0
    total = open(os.path.join(out, "metrics.csv")).read().splitlines()[-1]
    assert float(total.split(",")[2]) == 0.0


def test_app_geodesic_delegated_oracle(tmp_path):
    # cotangent geodesic on a saved flat grid reproduces Euclidean distance
    from pointlap.geometry import grid_plane
    from pointlap.meshio import save_obj

    mesh = grid_plane(24, 24)
    mesh_path = str(tmp_path / "plane.obj")
    save_obj(mesh_path, mesh)
    out = str(tmp_path / "geo")
    src = (12 * 25 + 12)
    rc = main(["app", "geodesic", "--mesh", mesh_path, "--operator", "cotangent",
               "--source", str(src), "--out", out])
    assert rc == 0
    rows = open(os.path.join(out, "geodesic.csv")).read().splitlines()[1:]
    phi = np.array([float(r.split(",")[1]) for r in rows])
    d = np.linalg.norm(mesh.vertices - mesh.vertices[src], axis=1)
    interior = np.all(np.abs(mesh.vertices[:, :2]) < 1.0 - 1.5 / 12, axis=1)
    mask = interior & (d > 1e-12)
    rel = np.abs(phi[mask] - d[mask]) / d[mask]
    assert rel.mean() < 0.03
    assert os.path.exists(os.path.join(out, "geodesic.ply"))


def test_app_smooth_and_filter(dataset_dir, tmp_path):
    with open(os.path.join(dataset_dir, "index.json")) as f:
        name = json.load(f)["shapes"][0]["name"]
    mesh_path = os.path.join(dataset_dir, "shapes", name, "mesh.obj")
    out1 = str(tmp_path / "smooth")
    assert main(["app", "smooth", "--mesh", mesh_path, "--operator", "cotangent",
                 "--iters", "5", "--out", out1]) == 0
    assert os.path.exists(os.path.join(out1, "smoothed.ply"))
    out2 = str(tmp_path / "filt")
    assert main(["app", "filter", "--mesh", mesh_path, "--operator", "uniform",
                 "--n-modes", "10", "--mode", "lowpass", "--out", out2]) == 0
    assert os.path.exists(os.path.join(out2, "filtered.ply"))


def test_app_filter_amplify_defaults_change_the_cloud(dataset_dir, tmp_path):
    from pointlap.meshio import load_mesh

    with open(os.path.join(dataset_dir, "index.json")) as f:
        name = json.load(f)["shapes"][0]["name"]
    mesh_path = os.path.join(dataset_dir, "shapes", name, "mesh.obj")
    out = str(tmp_path / "amp")
    assert main(["app", "filter", "--mesh", mesh_path, "--operator", "uniform",
                 "--mode", "amplify", "--out", out]) == 0
    before = load_mesh(mesh_path).vertices
    after = load_mesh(os.path.join(out, "filtered.ply")).vertices
    assert np.abs(after - before).max() > 1e-6


@pytest.mark.parametrize("band_start", ["20", "-1"])
def test_app_filter_band_start_out_of_range(dataset_dir, tmp_path, band_start):
    with open(os.path.join(dataset_dir, "index.json")) as f:
        name = json.load(f)["shapes"][0]["name"]
    mesh_path = os.path.join(dataset_dir, "shapes", name, "mesh.obj")
    out = str(tmp_path / "amp")
    assert main(["app", "filter", "--mesh", mesh_path, "--mode", "amplify",
                 "--n-modes", "20", f"--band-start={band_start}", "--out", out]) == 2
    assert not os.path.exists(out)


def test_app_arap(dataset_dir, tmp_path):
    with open(os.path.join(dataset_dir, "index.json")) as f:
        name = json.load(f)["shapes"][0]["name"]
    mesh_path = os.path.join(dataset_dir, "shapes", name, "mesh.obj")
    from pointlap.meshio import load_obj

    n = load_obj(mesh_path).num_vertices
    spec = {"fixed": list(range(0, 10)),
            "handle_indices": [n - 1],
            "handle_targets": [[0.0, 0.0, 1.5]]}
    cpath = tmp_path / "cons.json"
    cpath.write_text(json.dumps(spec))
    out = str(tmp_path / "arap")
    rc = main(["app", "arap", "--mesh", mesh_path, "--operator", "cotangent",
               "--constraints", str(cpath), "--iters", "3", "--out", out])
    assert rc == 0
    assert os.path.exists(os.path.join(out, "deformed.ply"))


def test_app_arap_requires_constraints(tmp_path, capsys):
    from pointlap.geometry import grid_plane
    from pointlap.meshio import save_obj

    mesh_path = str(tmp_path / "plane.obj")
    save_obj(mesh_path, grid_plane(8, 8))
    out = str(tmp_path / "o")
    assert main(["app", "arap", "--mesh", mesh_path, "--out", out]) == 2
    assert "arap needs --constraints" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_app_arap_cotangent_cylinder(tmp_path):
    # rest constraints keep the rest shape: ARAP's 1-rings are the cotangent
    # operator's mesh edges, not a separate KNN graph's
    from pointlap.geometry import make_shape
    from pointlap.meshio import load_mesh, save_obj

    mesh = make_shape("cylinder", 700, 0)
    mesh_path = str(tmp_path / "cylinder.obj")
    save_obj(mesh_path, mesh)
    cpath = tmp_path / "c.json"
    cpath.write_text(json.dumps({"fixed": list(range(0, mesh.num_vertices, 50))}))
    out = str(tmp_path / "o")
    assert main(["app", "arap", "--mesh", mesh_path, "--constraints", str(cpath),
                 "--iters", "3", "--out", out]) == 0
    rest = load_mesh(mesh_path).vertices
    assert np.abs(load_mesh(os.path.join(out, "deformed.ply")).vertices - rest).max() < 1e-9


@pytest.mark.parametrize("spec, message", [
    ({"fixed": [0, 500]}, '"fixed" indices must lie in [0, 81)'),
    ({"handles": [1]}, 'no "fixed" key'),
], ids=["fixed-out-of-range", "no-fixed-key"])
def test_app_arap_rejects_malformed_constraints(tmp_path, capsys, spec, message):
    from pointlap.geometry import grid_plane
    from pointlap.meshio import save_obj

    mesh_path = str(tmp_path / "plane.obj")
    save_obj(mesh_path, grid_plane(8, 8))  # 81 vertices
    cpath = tmp_path / "cons.json"
    cpath.write_text(json.dumps(spec))
    out = str(tmp_path / "o")
    assert main(["app", "arap", "--mesh", mesh_path, "--constraints", str(cpath),
                 "--out", out]) == 1
    err = capsys.readouterr().err
    assert f"{cpath}: {message}" in err
    assert "Traceback" not in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("subcommand", ["smooth", "arap"])
def test_app_rejects_negative_iters(tmp_path, capsys, subcommand):
    from pointlap.geometry import grid_plane
    from pointlap.meshio import save_obj

    mesh_path = str(tmp_path / "plane.obj")
    save_obj(mesh_path, grid_plane(8, 8))
    out = str(tmp_path / "o")
    argv = ["app", subcommand, "--mesh", mesh_path, "--iters=-3", "--out", out]
    if subcommand == "arap":
        cpath = tmp_path / "cons.json"
        cpath.write_text(json.dumps({"fixed": [0, 1, 2]}))
        argv += ["--constraints", str(cpath)]
    assert main(argv) == 1
    assert "iters must be non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, message", [("--dt", "-0.001", "dt must be"),
                                                  ("--steps", "-3", "steps must be")])
def test_app_heat_rejects_bad_time_step(tmp_path, capsys, flag, value, message):
    from pointlap.geometry import grid_plane
    from pointlap.meshio import save_obj

    mesh_path = str(tmp_path / "plane.obj")
    save_obj(mesh_path, grid_plane(8, 8))
    out = str(tmp_path / "o")
    assert main(["app", "heat", "--mesh", mesh_path, f"{flag}={value}", "--out", out]) == 1
    assert message in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "heat.csv"))


def test_missing_input_fails_cleanly(tmp_path):
    rc = main(["eval", "--dataset", str(tmp_path / "nope"), "--out",
               str(tmp_path / "o"), "--baseline", "uniform"])
    assert rc == 1


def test_app_requires_geometry(tmp_path):
    rc = main(["app", "heat", "--out", str(tmp_path / "o")])
    assert rc == 2


@pytest.mark.parametrize("subcommand", ["heat", "geodesic"])
@pytest.mark.parametrize("source", [-1, 25 * 25])
def test_app_source_out_of_range(tmp_path, capsys, subcommand, source):
    from pointlap.geometry import grid_plane
    from pointlap.meshio import save_obj

    mesh_path = str(tmp_path / "plane.obj")
    save_obj(mesh_path, grid_plane(24, 24))  # 625 vertices
    out = str(tmp_path / "o")
    rc = main(["app", subcommand, "--mesh", mesh_path, "--operator", "cotangent",
               "--source", str(source), "--out", out])
    assert rc == 2
    assert "--source must lie in [0, 625)" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_cli_import_loads_no_blas():
    # --threads sets the BLAS thread variables in main(), which only takes
    # effect if importing the CLI has not loaded numpy or scipy yet
    import pointlap

    src = os.path.dirname(os.path.dirname(os.path.abspath(pointlap.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import pointlap.cli, sys; "
            "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_threads_cap_both_blas_pools():
    # numpy and scipy each bundle an OpenBLAS with its own thread pool; the
    # variables --threads sets before either loads cap both
    import pointlap

    src = os.path.dirname(os.path.dirname(os.path.abspath(pointlap.__file__)))
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = """
import ctypes, json, os
from pointlap.cli import _apply_threads
_apply_threads(1)
import numpy, scipy.linalg
counts = {}
if os.path.exists("/proc/self/maps"):
    with open("/proc/self/maps") as f:
        paths = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                counts[path] = fn()
                break
print(json.dumps(counts))
"""
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    counts = json.loads(out.stdout)
    if not counts:
        pytest.skip("no OpenBLAS thread count can be queried here")
    assert set(counts.values()) == {1}, counts


# -- the parser declares exactly the options each command reads ---------------

APP_SHARED = {"--threads", "--out", "--mesh", "--cloud", "--checkpoint", "--operator",
              "--k", "--heat-t"}
SURFACE = {
    "gen": {"--threads", "--out", "--num-shapes", "--seed", "--config"},
    "train": {"--threads", "--dataset", "--out", "--epochs", "--limit", "--seed",
              "--config", "--paper-scale"},
    "predict": {"--threads", "--checkpoint", "--cloud", "--out", "--normalize"},
    "eval": {"--threads", "--dataset", "--out", "--checkpoint", "--baseline", "--heat-t",
             "--limit", "--config"},
    "app heat": APP_SHARED | {"--source", "--steps", "--dt"},
    "app geodesic": APP_SHARED | {"--source"},
    "app smooth": APP_SHARED | {"--step", "--iters"},
    "app filter": APP_SHARED | {"--n-modes", "--mode", "--band-start"},
    "app arap": APP_SHARED | {"--constraints", "--iters"},
}


def _surface(parser, command=()):
    """{command line prefix: its options} over the leaf parsers, help excluded."""
    out = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                out.update(_surface(child, command + (name,)))
    if command and not out:
        out[" ".join(command)] = {action.option_strings[-1] for action in parser._actions
                                  if action.option_strings and action.dest != "help"}
    return out


def test_parser_surface_is_pinned():
    from pointlap.cli import build_parser

    surface = _surface(build_parser())
    assert surface == SURFACE
    assert sum(len(options) for options in surface.values()) == 77


@pytest.mark.parametrize("argv", [
    ["predict", "--seed", "1", "--checkpoint", "c", "--cloud", "p.ply", "--out", "o"],
    ["gen", "--paper-scale", "--out", "o"],
    ["app", "heat", "--n-modes", "5", "--mesh", "m.obj", "--out", "o"],
    ["app", "smooth", "--checkpoint", "X", "--operator", "uniform", "--mesh", "m.obj",
     "--out", "o"],
])
def test_undeclared_option_exits_2(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert not os.path.exists("o")


@pytest.mark.parametrize("argv", [
    ["gen", "--out", "o", "--num-shapes", "0"],
    ["train", "--dataset", "d", "--out", "o", "--epochs", "0"],
    ["train", "--dataset", "d", "--out", "o", "--limit", "0"],
    ["predict", "--checkpoint", "c", "--cloud", "p.ply", "--out", "o", "--threads", "0"],
])
def test_count_options_reject_zero(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "must be at least 1, got 0" in capsys.readouterr().err
    assert not os.path.exists("o")


def test_load_dataset_rejects_zero_limit(dataset_dir):
    with pytest.raises(ValueError, match="limit"):
        load_dataset(dataset_dir, ModelConfig(), limit=0)


def test_train_limit_and_epochs_are_read(dataset_dir, tiny_cfg_file, tmp_path):
    out = str(tmp_path / "run")
    assert main(["train", "--dataset", dataset_dir, "--out", out, "--config", tiny_cfg_file,
                 "--epochs", "1", "--limit", "2", "--threads", "1"]) == 0
    assert len(open(os.path.join(out, "log.csv")).read().splitlines()) == 2
    manifest = json.load(open(os.path.join(out, "run_manifest.json")))
    with open(os.path.join(dataset_dir, "index.json")) as f:
        sizes = [entry["n_vertices"] for entry in json.load(f)["shapes"]]
    assert manifest["config"]["level_points"][0] == sum(sizes[:2])


@pytest.mark.parametrize("section,key", [("training", "epochs"), ("training", "batch_size"),
                                         ("model", "k")])
def test_ini_rejects_zero_counts(dataset_dir, tmp_path, capsys, section, key):
    cfg = tmp_path / "zero.ini"
    cfg.write_text(f"[{section}]\n{key} = 0\n")
    out = str(tmp_path / "out")
    assert main(["train", "--dataset", dataset_dir, "--out", out, "--config", str(cfg)]) == 1
    assert f"{key} must be at least 1, got 0" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("ini, message", [
    ("num_shapes = 0", "[dataset] num_shapes must be at least 1, got 0"),
    ("min_resolution = 0", "[dataset] min_resolution must be at least 1, got 0"),
    ("min_resolution = 900\nmax_resolution = 500",
     "[dataset] max_resolution must be at least min_resolution 900, got 500"),
    ("kinds = sphere, cube", "[dataset] kinds: unknown kind 'cube'"),
], ids=["num_shapes", "min_resolution", "max_resolution", "kinds"])
def test_gen_rejects_bad_dataset_values(tmp_path, capsys, ini, message):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"[dataset]\n{ini}\n")
    out = str(tmp_path / "out")
    assert main(["gen", "--out", out, "--config", str(cfg)]) == 1
    assert message in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("argv, option", [
    (["app", "smooth", "--k", "4"], "--k"),
    (["app", "smooth", "--operator", "cotangent", "--k", "4"], "--k"),
    (["app", "smooth", "--checkpoint", "ck", "--k", "4"], "--k"),
    (["app", "heat", "--heat-t", "0.1"], "--heat-t"),
    (["app", "heat", "--operator", "uniform", "--heat-t", "0.1"], "--heat-t"),
    (["app", "heat", "--checkpoint", "ck", "--heat-t", "0.1"], "--heat-t"),
    (["app", "filter", "--band-start", "3"], "--band-start"),
    (["app", "filter", "--mode", "highpass", "--band-start", "3"], "--band-start"),
    (["eval", "--dataset", "d", "--baseline", "uniform", "--heat-t", "0.1"], "--heat-t"),
    (["eval", "--dataset", "d", "--checkpoint", "ck", "--heat-t", "0.1"], "--heat-t"),
    (["eval", "--dataset", "d", "--checkpoint", "ck", "--config", "c.ini"], "--config"),
])
def test_option_of_another_operator_or_mode_exits_2(tmp_path, monkeypatch, capsys, argv,
                                                     option):
    # no input file exists, so exit 2 (not 1) shows the check runs before any read
    monkeypatch.chdir(tmp_path)
    if argv[0] == "app":
        argv = argv + ["--mesh", "m.obj"]
    assert main(argv + ["--out", "o"]) == 2
    assert f"{option} is read only" in capsys.readouterr().err
    assert not os.path.exists("o")


@pytest.mark.parametrize("argv", [
    ["app", "smooth", "--operator", "heat", "--k", "4", "--heat-t", "0.05"],
    ["app", "filter", "--operator", "uniform", "--mode", "amplify", "--n-modes", "6",
     "--band-start", "3"],
])
def test_option_of_its_operator_or_mode_is_accepted(tmp_path, argv):
    from pointlap.geometry import grid_plane
    from pointlap.meshio import save_obj

    mesh_path = str(tmp_path / "plane.obj")
    save_obj(mesh_path, grid_plane(8, 8))
    assert main(argv + ["--mesh", mesh_path, "--out", str(tmp_path / "o")]) == 0


def test_app_rejects_k_zero(tmp_path, capsys):
    from pointlap.geometry import grid_plane
    from pointlap.meshio import save_obj

    mesh_path = str(tmp_path / "plane.obj")
    save_obj(mesh_path, grid_plane(8, 8))
    out = str(tmp_path / "o")
    assert main(["app", "smooth", "--mesh", mesh_path, "--operator", "uniform", "--k", "0",
                 "--out", out]) == 1
    assert "k must be at least 1, got 0" in capsys.readouterr().err


def test_app_manifest_records_no_seed(tmp_path):
    from pointlap.geometry import grid_plane
    from pointlap.meshio import save_obj

    mesh_path = str(tmp_path / "plane.obj")
    save_obj(mesh_path, grid_plane(8, 8))
    out = str(tmp_path / "o")
    assert main(["app", "heat", "--mesh", mesh_path, "--steps", "3", "--out", out]) == 0
    manifest = json.load(open(os.path.join(out, "run_manifest.json")))
    assert manifest["command"] == "app heat"
    assert manifest["seed"] is None
    assert set(manifest["args"]) == {"command", "subcommand", "threads", "out", "mesh",
                                     "cloud", "checkpoint", "operator", "k", "heat_t",
                                     "source", "steps", "dt"}
