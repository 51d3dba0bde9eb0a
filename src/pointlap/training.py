"""Probe-imitation losses, the training loop, and evaluation metrics.

The operator loss compares the actions of the predicted and ground-truth
pairs on a probe matrix, each probe weighted by 1 / (mean |gt action| + 0.1)
(mean of absolute values; the signed mean of an oscillatory probe's
Laplacian is ~0 and would defeat the balancing). Total loss adds 0.1 times
the mass term. Evaluation clips each (sample, probe) MSE at 1.0 and reports
the clip rate.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field, asdict

import numpy as np

from . import autodiff as ad
from .autodiff import AdamW, Tape, Tensor
from .geometry import Mesh, points_from_mesh
from .knn import KnnGraph, build_knn
from .laplacian import LaplacianPair, cotangent_laplacian
from .model import GraphHierarchy, LaplacianNet, ModelConfig, build_hierarchy, save_model
from .probes import ProbeSet, eval_probe_set, spatial_probes, spectral_probes

LOSS_EPS = 0.1
MSE_CLIP = 1.0


class TrainingDiverged(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 150
    batch_size: int = 4
    lr: float = 1e-3
    weight_decay: float = 0.01
    mass_weight: float = 0.1
    spectral_count: int = 32
    holdout_fraction: float = 0.2
    checkpoint_every: int = 50
    seed: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class TrainingSample:
    name: str
    kind: str
    points: np.ndarray
    hier: GraphHierarchy
    gt: LaplacianPair
    spectral: ProbeSet  # precomputed, 64 probes

    @property
    def graph(self) -> KnnGraph:
        return self.hier.graph


def prepare_sample(name: str, kind: str, mesh: Mesh, model_cfg: ModelConfig,
                   spectral_count: int = 64, seed: int = 0) -> TrainingSample:
    """Full per-shape preprocessing; the mesh is assumed normalized already."""
    cloud = points_from_mesh(mesh)
    graph = build_knn(cloud, k=model_cfg.k)
    hier = build_hierarchy(graph)
    gt = cotangent_laplacian(mesh)
    spectral = spectral_probes(gt, count=spectral_count, seed=seed)
    return TrainingSample(name, kind, cloud.points, hier, gt, spectral)


# -- losses -------------------------------------------------------------------

def probe_weights(gt_applied: np.ndarray) -> np.ndarray:
    """Per-probe balance weight from the ground-truth operator response."""
    return 1.0 / (np.mean(np.abs(gt_applied), axis=0) + LOSS_EPS)


def loss_laplacian(pred: LaplacianPair, gt: LaplacianPair, probes: ProbeSet) -> float:
    """sum_f w_f || M^-1 L f - Mgt^-1 Lgt f ||^2 over the probe columns."""
    if pred.n != gt.n or pred.n != probes.values.shape[0]:
        raise ValueError("operator and probe dimensions disagree")
    dp = pred.apply(probes.values)
    dg = gt.apply(probes.values)
    w = probe_weights(dg)
    return float(np.sum(w * np.sum((dp - dg) ** 2, axis=0)))


def loss_mass(pred_mass: np.ndarray, gt_mass: np.ndarray) -> float:
    pred_mass = np.asarray(pred_mass, dtype=np.float64)
    gt_mass = np.asarray(gt_mass, dtype=np.float64)
    if pred_mass.shape != gt_mass.shape:
        raise ValueError("mass vectors differ in length")
    return float(np.mean((pred_mass - gt_mass) ** 2))


def laplacian_loss_on_tape(tape: Tape, weights: Tensor, masses: Tensor,
                           graph: KnnGraph, probe_values: np.ndarray,
                           gt_applied: np.ndarray, w_probe: np.ndarray) -> Tensor:
    """Differentiable twin of :func:`loss_laplacian` for predicted (w, M).

    `weights` follow the rows of ``graph.incidence`` B, and L f = B^T (w B f)
    adds one signed contribution per undirected edge, so it is exactly symmetric.
    """
    b = graph.incidence
    contrib = ad.mul(tape, weights, Tensor(b @ probe_values))
    lf = ad.adjacency_sum(tape, contrib, b.T)
    delta = ad.div(tape, lf, masses)
    r = ad.sub(tape, delta, Tensor(gt_applied))
    weighted = ad.mul(tape, ad.mul(tape, r, r), Tensor(w_probe))
    return ad.sum_all(tape, weighted)


def mass_loss_on_tape(tape: Tape, masses: Tensor, gt_mass: np.ndarray) -> Tensor:
    d = ad.sub(tape, masses, Tensor(gt_mass[:, None]))
    return ad.mean_all(tape, ad.mul(tape, d, d))


def total_loss_on_tape(tape: Tape, weights: Tensor, masses: Tensor, sample: TrainingSample,
                       probes: ProbeSet, mass_weight: float = 0.1):
    """Returns (total, laplacian, mass) loss tensors for one sample."""
    gt_applied = sample.gt.apply(probes.values)
    w_probe = probe_weights(gt_applied)
    lap = laplacian_loss_on_tape(tape, weights, masses, sample.graph,
                                 probes.values, gt_applied, w_probe)
    massl = mass_loss_on_tape(tape, masses, sample.gt.mass)
    total = ad.add(tape, lap, ad.mul(tape, massl, mass_weight))
    return total, lap, massl


# -- evaluation ---------------------------------------------------------------

@dataclass(frozen=True)
class EvalResult:
    mse: float
    r_gt1: float
    sparsity: float


def evaluate(pred: LaplacianPair, gt: LaplacianPair, eval_probes: ProbeSet) -> EvalResult:
    """Clipped per-probe MSE mean, clip rate, and nonzeros per row."""
    if pred.n != gt.n or pred.n != eval_probes.values.shape[0]:
        raise ValueError("operator and probe dimensions disagree")
    dp = pred.apply(eval_probes.values)
    dg = gt.apply(eval_probes.values)
    per_probe = np.mean((dp - dg) ** 2, axis=0)
    clipped = np.minimum(per_probe, MSE_CLIP)
    return EvalResult(mse=float(clipped.mean()),
                      r_gt1=float(np.mean(per_probe > MSE_CLIP)),
                      sparsity=pred.sparsity())


# -- the loop -----------------------------------------------------------------

@dataclass
class TrainResult:
    model: LaplacianNet
    log: list = field(default_factory=list)
    train_indices: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    holdout_indices: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))


def split_dataset(n: int, holdout_fraction: float, seed: int):
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5B17]))
    perm = rng.permutation(n)
    n_hold = int(round(holdout_fraction * n))
    return np.sort(perm[n_hold:]), np.sort(perm[:n_hold])


def spatial_seed(seed: int, epoch: int, sample_index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([seed, 0x5A7, epoch, sample_index])


def train(samples: list, model_cfg: ModelConfig | None = None,
          cfg: TrainConfig | None = None, out_dir: str | None = None) -> TrainResult:
    """AdamW on the probe-imitation loss with a linear LR decay to zero."""
    if not samples:
        raise ValueError("empty dataset")
    model_cfg = model_cfg or ModelConfig()
    cfg = cfg or TrainConfig()
    model = LaplacianNet(model_cfg, seed=cfg.seed)
    opt = AdamW(model.params, lr=cfg.lr, weight_decay=cfg.weight_decay)
    train_idx, hold_idx = split_dataset(len(samples), cfg.holdout_fraction, cfg.seed)
    if train_idx.size == 0:
        train_idx, hold_idx = hold_idx, train_idx

    spectral_train = {i: samples[i].spectral.take(cfg.spectral_count) for i in train_idx}
    eval_sets = {i: eval_probe_set(samples[i].gt, samples[i].points,
                                   spectral=samples[i].spectral)
                 for i in hold_idx}

    shuffle_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xE70C]))
    result = TrainResult(model=model, train_indices=train_idx, holdout_indices=hold_idx)
    for epoch in range(cfg.epochs):
        opt.lr = cfg.lr * (1.0 - epoch / cfg.epochs)
        order = train_idx[shuffle_rng.permutation(train_idx.size)]
        lap_sum = mass_sum = total_sum = 0.0
        for start in range(0, order.size, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            opt.zero_grad()
            for i in batch:
                s = samples[int(i)]
                tape = Tape()
                try:
                    weights, masses, _ = model.forward(tape, s.hier)
                    spat = spatial_probes(s.points, spatial_seed(cfg.seed, epoch, int(i)))
                    probes = ProbeSet.concatenate([spectral_train[int(i)], spat])
                    total, lap, massl = total_loss_on_tape(
                        tape, weights, masses, s, probes, cfg.mass_weight)
                    scaled = ad.mul(tape, total, 1.0 / batch.size)
                    tape.backward(scaled)
                except ad.NonFiniteError as exc:
                    raise TrainingDiverged(
                        f"non-finite loss at epoch {epoch}, sample {s.name!r}: {exc}"
                    ) from exc
                lap_sum += lap.item()
                mass_sum += massl.item()
                total_sum += total.item()
            opt.step()
        holdout_mse = float("nan")
        if hold_idx.size:
            mses = [evaluate(model.predict_pair(samples[int(i)].graph, samples[int(i)].hier),
                             samples[int(i)].gt, eval_sets[int(i)]).mse
                    for i in hold_idx]
            holdout_mse = float(np.mean(mses))
        row = {
            "epoch": epoch,
            "lr": opt.lr,
            "loss_laplacian": lap_sum / order.size,
            "loss_mass": mass_sum / order.size,
            "loss_total": total_sum / order.size,
            "holdout_mse": holdout_mse,
        }
        result.log.append(row)
        if out_dir and cfg.checkpoint_every and (epoch + 1) % cfg.checkpoint_every == 0:
            save_model(os.path.join(out_dir, f"checkpoint_{epoch + 1:04d}"), model,
                       extra={"epoch": epoch + 1, "train_config": cfg.to_dict()})
    if out_dir:
        save_model(os.path.join(out_dir, "checkpoint_final"), model,
                   extra={"epoch": cfg.epochs, "train_config": cfg.to_dict()})
    return result


def write_log_csv(path, rows: list) -> None:
    cols = ["epoch", "lr", "loss_laplacian", "loss_mass", "loss_total", "holdout_mse"]
    with open(path, "w", encoding="ascii") as f:
        f.write(",".join(cols) + "\n")
        for row in rows:
            f.write(",".join(repr(row[c]) if isinstance(row[c], float) else str(row[c])
                             for c in cols) + "\n")
