import numpy as np
import pytest

from pointlap import autodiff as ad
from pointlap.autodiff import Parameter, Tape, Tensor
from pointlap.geometry import make_shape, normalize_unit_box
from pointlap.knn import KnnGraph, build_knn, graph_from_edges
from pointlap.laplacian import assemble_learned
from pointlap.model import (GraphLevel, LaplacianNet, ModelConfig, build_hierarchy,
                            graph_conv, input_signal, load_model, save_model)


@pytest.fixture(scope="module")
def small_cloud():
    rng = np.random.default_rng(12)
    return rng.random((60, 3)) * 2 - 1


@pytest.fixture(scope="module")
def small_graph(small_cloud):
    return build_knn(small_cloud, k=8)


@pytest.fixture(scope="module")
def tiny_net(tiny_model_config):
    return LaplacianNet(tiny_model_config, seed=0)


class TestConfig:
    def test_defaults_and_paper_scale(self):
        desk = ModelConfig()
        assert desk.feature_dim == 64
        paper = ModelConfig.paper_scale()
        assert paper.enc_channels == (128, 128, 128)
        assert paper.dec_channels == (256, 256, 512)
        assert paper.blocks == (3, 2, 3)
        assert paper.feature_dim == 256

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelConfig(blocks=(1, 1))
        with pytest.raises(ValueError):
            ModelConfig(blocks=(0, 1, 1))
        with pytest.raises(ValueError):
            ModelConfig(enc_channels=(12, 12, 12))  # not divisible by 8 groups

    def test_round_trip_dict(self):
        cfg = ModelConfig.paper_scale()
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg

    def test_checkpoint_with_unknown_field_rejected(self, tiny_model_config, tmp_path):
        # a checkpoint written while the first voxel was a config field was
        # trained on another hierarchy, so it must not load silently
        old = dict(tiny_model_config.to_dict(), first_voxel_size=1.0 / 16.0)
        ad.save_checkpoint(str(tmp_path / "old"), LaplacianNet(tiny_model_config).params,
                           {"config": old})
        with pytest.raises(ValueError, match="first_voxel_size"):
            load_model(str(tmp_path / "old"))


class TestInputSignal:
    def test_full_degree_row(self):
        pts = np.random.default_rng(0).random((20, 3))
        g = build_knn(pts, k=8)
        sig = input_signal(g, 8)
        i = int(np.argmax(g.degree == 8)) if np.any(g.degree == 8) else 0
        if g.degree[i] == 8:
            assert sig[i].tolist() == [1.0, 1.0, 1.0, 1.0]

    def test_no_absolute_coordinates(self, small_graph, small_cloud):
        shifted = KnnGraph(small_cloud + 100.0, small_graph.edge_src,
                           small_graph.edge_dst, small_graph.degree, k=8)
        assert np.array_equal(input_signal(small_graph, 8), input_signal(shifted, 8))

    def test_degree_column(self, small_graph):
        sig = input_signal(small_graph, 8)
        assert np.array_equal(sig[:, 3] * 8, small_graph.degree)


class TestGraphConv:
    def test_isolated_vertex_keeps_self_term(self):
        pos = np.random.default_rng(1).random((4, 3))
        g = graph_from_edges(pos, [0, 1], [1, 0], k=1)  # vertices 2, 3 isolated
        feats = np.random.default_rng(2).standard_normal((4, 3))
        w0 = Parameter("w0", np.random.default_rng(3).standard_normal((3, 5)))
        w1 = Parameter("w1", np.random.default_rng(4).standard_normal((7, 5)))
        out = graph_conv(Tape(), Tensor(feats), GraphLevel(g), w0, w1)
        assert np.abs(out.data[2] - feats[2] @ w0.data).max() < 1e-12
        assert np.abs(out.data[3] - feats[3] @ w0.data).max() < 1e-12

    def test_matches_dense_formula(self):
        rng = np.random.default_rng(5)
        pts = rng.random((7, 3))
        g = build_knn(pts, k=2)
        feats = rng.standard_normal((7, 4))
        w0 = Parameter("w0", rng.standard_normal((4, 6)))
        w1 = Parameter("w1", rng.standard_normal((8, 6)))
        out = graph_conv(Tape(), Tensor(feats), GraphLevel(g), w0, w1)
        expected = feats @ w0.data
        for s, d in zip(g.edge_src, g.edge_dst):
            v = pts[s] - pts[d]
            msg = np.concatenate([feats[d], v, [np.linalg.norm(v)]])
            expected[s] += msg @ w1.data
        assert np.abs(out.data - expected).max() < 1e-12

    def test_translation_leaves_conv_unchanged(self):
        rng = np.random.default_rng(6)
        pts = rng.random((15, 3))
        g1 = build_knn(pts, k=3)
        g2 = KnnGraph(pts + np.array([5.0, -2.0, 1.0]), g1.edge_src, g1.edge_dst,
                      g1.degree, k=3)
        feats = rng.standard_normal((15, 4))
        w0 = Parameter("w0", rng.standard_normal((4, 4)))
        w1 = Parameter("w1", rng.standard_normal((8, 4)))
        a = graph_conv(Tape(), Tensor(feats), GraphLevel(g1), w0, w1)
        b = graph_conv(Tape(), Tensor(feats), GraphLevel(g2), w0, w1)
        assert np.abs(a.data - b.data).max() < 1e-12


class TestHierarchy:
    def test_three_levels_voxel_doubling(self, small_graph):
        hier = build_hierarchy(small_graph, ModelConfig())
        assert len(hier.levels) == 3
        assert len(hier.pools) == 2
        ui, uj = small_graph.undirected_pairs()
        pos = small_graph.positions
        spacing = np.mean(np.linalg.norm(pos[ui] - pos[uj], axis=1))
        assert hier.pools[0].voxel_size == 1.5 * spacing
        assert hier.pools[1].voxel_size == 2.0 * (1.5 * spacing)
        assert hier.levels[2].graph.num_vertices <= hier.levels[1].graph.num_vertices

    def test_scale_free(self):
        # scaling by 4 is exact in binary floating point, so the KNN graph,
        # the voxel keys and the centroids scale exactly with the cloud
        pts = normalize_unit_box(make_shape("torus", 700, 3)).vertices
        a = build_hierarchy(build_knn(pts, k=8), ModelConfig())
        b = build_hierarchy(build_knn(4.0 * pts, k=8), ModelConfig())
        for pa, pb in zip(a.pools, b.pools):
            assert pb.voxel_size == 4.0 * pa.voxel_size
            assert np.array_equal(pa.mapping, pb.mapping)
        assert ([lv.graph.num_vertices for lv in a.levels]
                == [lv.graph.num_vertices for lv in b.levels])

    @pytest.mark.parametrize("kind,resolution", [("sphere", 700), ("blended-blob", 2562)])
    def test_level_one_pools_at_any_point_count(self, kind, resolution):
        pts = normalize_unit_box(make_shape(kind, resolution, 3)).vertices
        hier = build_hierarchy(build_knn(pts, k=8), ModelConfig())
        kept = hier.levels[1].graph.num_vertices / hier.levels[0].graph.num_vertices
        assert 0.2 <= kept <= 0.5

    def test_adjacency_exactly_symmetric_on_every_level(self):
        pts = normalize_unit_box(make_shape("blended-blob", 2562, 3)).vertices
        hier = build_hierarchy(build_knn(pts, k=8))
        for level in hier.levels:
            adj, adj_t = level.adj, level.adj.T.tocsr()
            adj_t.sort_indices()
            assert np.array_equal(adj.indptr, adj_t.indptr)
            assert np.array_equal(adj.indices, adj_t.indices)
            assert adj.data.tobytes() == adj_t.data.tobytes()

    def test_config_is_ignored(self, small_graph, tiny_model_config):
        a = build_hierarchy(small_graph)
        b = build_hierarchy(small_graph, tiny_model_config)
        for pa, pb in zip(a.pools, b.pools):
            assert pa.voxel_size == pb.voxel_size
            assert np.array_equal(pa.mapping, pb.mapping)

    def test_minimum_cloud(self, tiny_model_config):
        pts = np.random.default_rng(7).random((9, 3))
        g = build_knn(pts, k=8)
        hier = build_hierarchy(g, tiny_model_config)
        net = LaplacianNet(tiny_model_config, seed=0)
        pair = net.predict_pair(g, hier)
        assert pair.n == 9


class TestForward:
    def test_outputs_well_formed(self, tiny_net, small_graph, tiny_model_config):
        hier = build_hierarchy(small_graph, tiny_model_config)
        weights, masses, feats = tiny_net.forward(Tape(), hier)
        ui, _ = small_graph.undirected_pairs()
        assert weights.data.shape == (len(ui), 1)
        assert np.all(weights.data >= 0)
        assert np.all(masses.data > 0)
        assert abs(masses.data.mean() - 1.0) < 1e-12
        assert feats.data.shape == (60, tiny_model_config.feature_dim)

    def test_assembled_pair_symmetric_exact(self, tiny_net, small_graph, tiny_model_config):
        pair = tiny_net.predict_pair(small_graph,
                                     build_hierarchy(small_graph, tiny_model_config))
        assert pair.stiffness.max_asymmetry() == 0.0
        assert pair.tag == "learned"

    def test_translation_invariance(self, tiny_net, small_cloud, tiny_model_config):
        rng = np.random.default_rng(8)
        shift = rng.uniform(-5, 5, 3)
        g1 = build_knn(small_cloud, k=8)
        g2 = build_knn(small_cloud + shift, k=8)
        p1 = tiny_net.predict_pair(g1, build_hierarchy(g1, tiny_model_config))
        p2 = tiny_net.predict_pair(g2, build_hierarchy(g2, tiny_model_config))
        assert np.abs(p1.stiffness.to_dense() - p2.stiffness.to_dense()).max() < 1e-9
        assert np.abs(p1.mass - p2.mass).max() < 1e-9

    def test_permutation_equivariance(self, tiny_net, small_cloud, tiny_model_config):
        rng = np.random.default_rng(9)
        perm = rng.permutation(len(small_cloud))
        g1 = build_knn(small_cloud, k=8)
        g2 = build_knn(small_cloud[perm], k=8)
        p1 = tiny_net.predict_pair(g1, build_hierarchy(g1, tiny_model_config))
        p2 = tiny_net.predict_pair(g2, build_hierarchy(g2, tiny_model_config))
        d1 = p1.stiffness.to_dense()
        d2 = p2.stiffness.to_dense()
        # row/col i of the permuted graph corresponds to vertex perm[i]
        assert np.abs(d2 - d1[np.ix_(perm, perm)]).max() < 1e-9
        assert np.abs(p2.mass - p1.mass[perm]).max() < 1e-9

    def test_deterministic_construction(self, tiny_model_config, small_graph):
        a = LaplacianNet(tiny_model_config, seed=5)
        b = LaplacianNet(tiny_model_config, seed=5)
        for name in a.params:
            assert np.array_equal(a.params[name].data, b.params[name].data)
        c = LaplacianNet(tiny_model_config, seed=6)
        assert any(not np.array_equal(a.params[n].data, c.params[n].data)
                   for n in a.params)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rejects_tiny_graph(self, tiny_net, tiny_model_config):
        g = graph_from_edges(np.zeros((1, 3)), [], [], k=1)
        hier = build_hierarchy(g, tiny_model_config)
        with pytest.raises(ValueError):
            tiny_net.forward(Tape(), hier)


class TestForwardOnly:
    """predict_pair runs the forward pass on NO_TAPE, which keeps no closures."""

    def test_same_numbers_as_taped_forward(self, tiny_net, small_graph, tiny_model_config):
        hier = build_hierarchy(small_graph, tiny_model_config)
        pair = tiny_net.predict_pair(small_graph, hier)
        weights, masses, _ = tiny_net.forward(Tape(), hier)
        taped = assemble_learned(small_graph, weights.data, masses.data)
        assert pair.stiffness.data.tobytes() == taped.stiffness.data.tobytes()
        assert pair.mass.tobytes() == taped.mass.tobytes()

    def test_peak_memory_below_taped_forward(self):
        import tracemalloc

        mesh = normalize_unit_box(make_shape("torus", 700, seed=3))
        g = build_knn(mesh.vertices, k=8)
        net = LaplacianNet(ModelConfig(), seed=0)
        hier = build_hierarchy(g, net.config)

        def peak(fn):
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        taped = peak(lambda: net.forward(Tape(), hier))
        forward_only = peak(lambda: net.predict_pair(g, hier))
        assert forward_only < 0.35 * taped, (forward_only, taped)

    def test_peak_memory_within_three_edge_arrays(self):
        # the edge MLP's (undirected edges x mlp_hidden) arrays are the largest
        # of the pass; the edge chain rebinds one name, so two are alive at once
        import tracemalloc

        from pointlap.geometry import icosphere

        cfg = ModelConfig()
        g = build_knn(icosphere(4).vertices, k=cfg.k)
        hier = build_hierarchy(g)
        net = LaplacianNet(cfg, seed=0)
        net.predict_pair(g, hier)  # builds the graph's cached incidence
        tracemalloc.start()
        try:
            net.predict_pair(g, hier)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        edge_array = len(g.undirected_pairs()[0]) * cfg.mlp_hidden * 8
        assert g.num_vertices == 2562
        assert peak <= 3 * edge_array, peak / edge_array

    def test_no_tape_refuses_backward(self):
        x = Parameter("x", np.ones(3))
        with pytest.raises(RuntimeError):
            ad.NO_TAPE.backward(ad.sum_all(ad.NO_TAPE, x))


class TestCheckpointing:
    def test_save_load_identical_prediction(self, tiny_net, small_graph,
                                            tiny_model_config, tmp_path):
        hier = build_hierarchy(small_graph, tiny_model_config)
        before = tiny_net.predict_pair(small_graph, hier)
        save_model(tmp_path / "ck", tiny_net, extra={"epoch": 3})
        again, extra = load_model(tmp_path / "ck")
        assert extra["epoch"] == 3
        assert again.config == tiny_model_config
        after = again.predict_pair(small_graph, hier)
        assert np.array_equal(after.stiffness.data, before.stiffness.data)
        assert np.array_equal(after.mass, before.mass)

    def test_scales_with_vertex_count(self, tiny_net, tiny_model_config):
        # fully convolutional: same weights run on a larger cloud
        mesh = normalize_unit_box(make_shape("torus", 700, seed=3))
        g = build_knn(mesh.vertices, k=8)
        pair = tiny_net.predict_pair(g, build_hierarchy(g, tiny_model_config))
        assert pair.n == mesh.num_vertices
