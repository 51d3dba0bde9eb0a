"""Graph U-Net predicting per-edge stiffness weights and per-vertex masses.

The network never sees absolute coordinates: the input signal is all-ones
plus the neighbor count, and every graph convolution augments neighbor
features with the relative offset and its length. Levels are joined by
voxel pooling (the per-voxel mean, a scatter sum over the fine-to-coarse
map) and unpooling (a row gather along the same map). The first voxel is
1.5x the mean KNN edge length and doubles per level, so every cloud pools
about 3x per level at any point count or scale; at 1.5 a 10k-point cloud in
the unit box keeps the levels of the fixed 1/16 voxel the network was tuned
at. Weights come from an MLP on the squared feature difference (symmetric by
construction) behind a ReLU; masses from an MLP behind a Softplus,
normalized to mean one.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields

import numpy as np
from scipy.sparse import csr_array

from . import autodiff as ad
from .autodiff import Parameter, Tape, Tensor
from .knn import CoarseningLevel, KnnGraph, coarsen_by_voxel
from .laplacian import LaplacianPair, assemble_learned


@dataclass(frozen=True)
class ModelConfig:
    """Desk-scale defaults; ``paper_scale`` restores the published sizes."""

    enc_channels: tuple = (32, 32, 32)
    dec_channels: tuple = (64, 64, 128)
    blocks: tuple = (2, 2, 2)
    mlp_hidden: int = 64
    k: int = 8
    gn_groups: int = 8

    def __post_init__(self):
        if not (len(self.enc_channels) == len(self.dec_channels) == len(self.blocks) == 3):
            raise ValueError("the U-Net has exactly three levels")
        if any(b < 1 for b in self.blocks):
            raise ValueError("every level needs at least one residual block")
        if self.k < 1:
            raise ValueError(f"k must be at least 1, got {self.k}")
        for c in (*self.enc_channels, *self.dec_channels):
            if c % self.gn_groups != 0:
                raise ValueError(f"channel width {c} not divisible by {self.gn_groups} groups")

    @property
    def feature_dim(self) -> int:
        return self.dec_channels[0]

    @staticmethod
    def paper_scale() -> "ModelConfig":
        return ModelConfig(enc_channels=(128, 128, 128), dec_channels=(256, 256, 512),
                           blocks=(3, 2, 3), mlp_hidden=256)

    def to_dict(self) -> dict:
        d = asdict(self)
        for key in ("enc_channels", "dec_channels", "blocks"):
            d[key] = list(d[key])
        return d

    @staticmethod
    def from_dict(d: dict) -> "ModelConfig":
        unknown = sorted(set(d) - {f.name for f in fields(ModelConfig)})
        if unknown:
            raise ValueError(f"unknown model config fields {unknown}; a checkpoint "
                             "from an older version must be retrained")
        d = dict(d)
        for key in ("enc_channels", "dec_channels", "blocks"):
            if key in d:
                d[key] = tuple(d[key])
        return ModelConfig(**d)


class GraphLevel:
    """One U-Net level: a graph and the aggregation operands of its convolutions.

    `adj` is the (n, n) CSR adjacency with unit weights, built straight from
    the sorted edge list, so row i sums N(i) in ascending order. The graph is
    symmetrized, so `adj` equals its transpose exactly and adj.T @ g sums in
    that same order. `geom_sum` holds per-vertex [sum_j v_ij, sum_j l_ij] for
    the edge vectors v_ij = x_i - x_j and their lengths l_ij; because the
    message map is linear it can be applied after neighbor aggregation.
    """

    def __init__(self, graph: KnnGraph):
        self.graph = graph
        n = graph.num_vertices
        indptr = np.r_[0, np.cumsum(graph.degree)]
        self.adj = csr_array((np.ones(graph.num_edges), graph.edge_dst, indptr), shape=(n, n))
        vec = graph.positions[graph.edge_src] - graph.positions[graph.edge_dst]
        geom = np.concatenate([vec, np.linalg.norm(vec, axis=1, keepdims=True)], axis=1)
        self.geom_sum = ad.scatter_sum(ad.NO_TAPE, Tensor(geom), graph.edge_src, n).data


@dataclass
class GraphHierarchy:
    levels: list[GraphLevel]          # fine to coarse, length 3
    pools: list[CoarseningLevel] = field(default_factory=list)  # length 2

    @property
    def graph(self) -> KnnGraph:
        return self.levels[0].graph


# First voxel over the mean KNN edge length: at 1.5 the 10,242-point unit-box
# blob keeps the levels of the fixed 1/16 voxel the network was tuned at
# (3408 and 940 points at levels 1 and 2, against 3393 and 934).
VOXEL_PER_SPACING = 1.5


def build_hierarchy(graph: KnnGraph, config: ModelConfig | None = None) -> GraphHierarchy:
    """Three levels joined by two voxel pools; depends on the graph alone.

    `config` is ignored; it is still accepted so that callers which pass a
    `ModelConfig` keep working.

    Pool 0's voxel is `VOXEL_PER_SPACING` (1.5, see there) times the mean
    length of the undirected edges and pool 1's twice that, so every cloud
    coarsens about 3x per level whatever its point count or scale. An
    edgeless graph has no spacing and no edge to join; it gets a unit voxel.
    """
    levels = [GraphLevel(graph)]
    pools = []
    current = graph
    ui, uj = graph.undirected_pairs()
    size = 1.0
    if len(ui):
        size = VOXEL_PER_SPACING * float(
            np.mean(np.linalg.norm(graph.positions[ui] - graph.positions[uj], axis=1)))
    for _ in range(2):
        pool = coarsen_by_voxel(current, size)
        current = pool.coarse
        levels.append(GraphLevel(current))
        pools.append(pool)
        size *= 2.0
    return GraphHierarchy(levels, pools)


def input_signal(graph: KnnGraph, k: int) -> np.ndarray:
    """Row i = (1, 1, 1, degree_i / k); carries no absolute coordinates."""
    sig = np.ones((graph.num_vertices, 4))
    sig[:, 3] = graph.degree / float(max(k, 1))
    return sig


def graph_conv(tape: Tape, features: Tensor, level: GraphLevel,
               w0: Parameter, w1: Parameter) -> Tensor:
    """p_i <- W0 p_i + sum_{j in N(i)} W1 [p_j || v_ij || l_ij] (self excluded).

    The per-edge map is linear, so W1 is applied after summing neighbor
    features (`level.adj`) and edge geometry (`level.geom_sum`) per vertex;
    this is algebraically identical to transforming each concatenated message
    and summing. It runs as the one fused op `autodiff.graph_conv`, which
    keeps only the neighbor sum for its backward.
    """
    return ad.graph_conv(tape, features, level.adj, level.geom_sum, w0, w1)


def _pool(tape: Tape, x: Tensor, level: CoarseningLevel) -> Tensor:
    """Per-voxel mean of the fine rows of `x`: the hierarchy's one pooling path."""
    total = ad.scatter_sum(tape, x, level.mapping, level.num_coarse)
    return ad.div(tape, total, Tensor(level.counts[:, None].astype(np.float64)))


class LaplacianNet:
    """U-Net over the voxel hierarchy followed by the edge / mass MLPs."""

    def __init__(self, config: ModelConfig | None = None, seed: int = 0):
        self.config = config or ModelConfig()
        self.params: dict[str, Parameter] = {}
        rng = np.random.default_rng(np.random.SeedSequence([0x6E65, seed]))
        cfg = self.config
        self._add_linear(rng, "embed", 4, cfg.enc_channels[0])
        for prefix, _, c_in, c_out in self._block_plan():
            self._add_block(rng, prefix, c_in, c_out)
        self._add_linear(rng, "edge.fc1", cfg.feature_dim, cfg.mlp_hidden)
        # small weights + positive bias: pre-ReLU values start near +0.5 for
        # every edge, so no edge is dead at init and the initial operator is
        # close to uniform weights
        self._add_linear(rng, "edge.fc2", cfg.mlp_hidden, 1, bias_init=0.5, scale=0.1)
        self._add_linear(rng, "mass.fc1", cfg.feature_dim, cfg.mlp_hidden)
        self._add_linear(rng, "mass.fc2", cfg.mlp_hidden, 1)

    def _block_plan(self):
        cfg = self.config
        plan = []
        width = cfg.enc_channels[0]
        for lvl in (0, 1):
            for b in range(cfg.blocks[lvl]):
                plan.append((f"enc{lvl}.block{b}", lvl, width, cfg.enc_channels[lvl]))
                width = cfg.enc_channels[lvl]
        for b in range(cfg.blocks[2]):
            plan.append((f"bott.block{b}", 2, width, cfg.dec_channels[2]))
            width = cfg.dec_channels[2]
        for lvl in (1, 0):
            width += cfg.enc_channels[lvl]
            for b in range(cfg.blocks[lvl]):
                plan.append((f"dec{lvl}.block{b}", lvl, width, cfg.dec_channels[lvl]))
                width = cfg.dec_channels[lvl]
        return plan

    def _add_linear(self, rng, name: str, c_in: int, c_out: int,
                    bias_init: float = 0.0, scale: float = 1.0):
        self.params[f"{name}.w"] = Parameter(
            f"{name}.w", scale * ad.kaiming_uniform(rng, c_in, (c_in, c_out)))
        self.params[f"{name}.b"] = Parameter(f"{name}.b", np.full(c_out, bias_init))

    def _add_block(self, rng, prefix: str, c_in: int, c_out: int):
        p = self.params
        p[f"{prefix}.conv1.w0"] = Parameter(
            f"{prefix}.conv1.w0", ad.kaiming_uniform(rng, c_in, (c_in, c_out)))
        p[f"{prefix}.conv1.w1"] = Parameter(
            f"{prefix}.conv1.w1", ad.kaiming_uniform(rng, c_in + 4, (c_in + 4, c_out)))
        p[f"{prefix}.gn1.g"] = Parameter(f"{prefix}.gn1.g", np.ones(c_out))
        p[f"{prefix}.gn1.b"] = Parameter(f"{prefix}.gn1.b", np.zeros(c_out))
        p[f"{prefix}.conv2.w0"] = Parameter(
            f"{prefix}.conv2.w0", ad.kaiming_uniform(rng, c_out, (c_out, c_out)))
        p[f"{prefix}.conv2.w1"] = Parameter(
            f"{prefix}.conv2.w1", ad.kaiming_uniform(rng, c_out + 4, (c_out + 4, c_out)))
        p[f"{prefix}.gn2.g"] = Parameter(f"{prefix}.gn2.g", np.ones(c_out))
        p[f"{prefix}.gn2.b"] = Parameter(f"{prefix}.gn2.b", np.zeros(c_out))
        if c_in != c_out:
            p[f"{prefix}.proj.w"] = Parameter(
                f"{prefix}.proj.w", ad.kaiming_uniform(rng, c_in, (c_in, c_out)))

    def _resblock(self, tape, x, level: GraphLevel, prefix: str) -> Tensor:
        p = self.params
        groups = self.config.gn_groups
        h = graph_conv(tape, x, level, p[f"{prefix}.conv1.w0"], p[f"{prefix}.conv1.w1"])
        h = ad.group_norm(tape, h, groups, p[f"{prefix}.gn1.g"], p[f"{prefix}.gn1.b"])
        h = ad.relu(tape, h)
        h = graph_conv(tape, h, level, p[f"{prefix}.conv2.w0"], p[f"{prefix}.conv2.w1"])
        h = ad.group_norm(tape, h, groups, p[f"{prefix}.gn2.g"], p[f"{prefix}.gn2.b"])
        shortcut = x
        if f"{prefix}.proj.w" in p:
            shortcut = ad.matmul(tape, x, p[f"{prefix}.proj.w"])
        return ad.relu(tape, ad.add(tape, h, shortcut))

    def forward(self, tape: Tape, hier: GraphHierarchy):
        """Returns (edge weights (e_u, 1), masses (n, 1), features (n, f)).

        Edge weights follow the rows of ``graph.incidence``; masses are
        already normalized to mean one. `tape` is a `Tape` when the pass is
        to be backpropagated, or ``ad.NO_TAPE`` for a forward-only pass that
        frees each op's intermediates as it goes; both give the same numbers.

        The edge MLP's chain (incidence product, square, fc1, softplus) is
        bound to one name. Each step makes an (undirected edges x hidden)
        array, the largest of the pass; rebinding the name drops the previous
        one as soon as the next exists, so a forward-only pass holds two of
        them at its peak instead of every step's.
        """
        cfg = self.config
        p = self.params
        g0 = hier.levels[0].graph
        if g0.num_vertices < 2:
            raise ValueError("need at least two vertices")
        x = Tensor(input_signal(g0, cfg.k))
        x = ad.linear(tape, x, p["embed.w"], p["embed.b"])
        skips = []
        for lvl in (0, 1):
            for b in range(cfg.blocks[lvl]):
                x = self._resblock(tape, x, hier.levels[lvl], f"enc{lvl}.block{b}")
            skips.append(x)
            x = _pool(tape, x, hier.pools[lvl])
        for b in range(cfg.blocks[2]):
            x = self._resblock(tape, x, hier.levels[2], f"bott.block{b}")
        for lvl in (1, 0):
            x = ad.gather_rows(tape, x, hier.pools[lvl].mapping)
            x = ad.concat_cols(tape, [x, skips[lvl]])
            for b in range(cfg.blocks[lvl]):
                x = self._resblock(tape, x, hier.levels[lvl], f"dec{lvl}.block{b}")
        feats = x

        h = ad.adjacency_sum(tape, feats, g0.incidence)
        h = ad.mul(tape, h, h)
        h = ad.linear(tape, h, p["edge.fc1.w"], p["edge.fc1.b"])
        h = ad.softplus(tape, h)
        weights = ad.relu(tape, ad.linear(tape, h, p["edge.fc2.w"], p["edge.fc2.b"]))

        hm = ad.softplus(tape, ad.linear(tape, feats, p["mass.fc1.w"], p["mass.fc1.b"]))
        raw = ad.softplus(tape, ad.linear(tape, hm, p["mass.fc2.w"], p["mass.fc2.b"]))
        masses = ad.div(tape, raw, ad.mean_all(tape, raw))
        return weights, masses, feats

    def predict_pair(self, graph: KnnGraph, hier: GraphHierarchy | None = None) -> LaplacianPair:
        if hier is None:
            hier = build_hierarchy(graph)
        weights, masses, _ = self.forward(ad.NO_TAPE, hier)
        return assemble_learned(graph, weights.data.ravel(), masses.data.ravel())

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None


def save_model(path, model: LaplacianNet, extra: dict | None = None) -> None:
    manifest = {"config": model.config.to_dict()}
    manifest.update(extra or {})
    ad.save_checkpoint(path, model.params, manifest)


def load_model(path) -> tuple[LaplacianNet, dict]:
    params, extra = ad.load_checkpoint(path)
    config = ModelConfig.from_dict(extra["config"])
    model = LaplacianNet(config)
    if set(params) != set(model.params):
        raise ValueError("checkpoint parameters do not match the configuration")
    for name, p in params.items():
        if p.data.shape != model.params[name].data.shape:
            raise ValueError(f"shape mismatch for {name}")
        model.params[name] = p
    return model, extra
