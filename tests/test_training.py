import numpy as np
import pytest

from pointlap.autodiff import Tape
from pointlap.geometry import make_shape, normalize_unit_box
from pointlap.knn import build_knn
from pointlap.laplacian import assemble_learned, uniform_laplacian
from pointlap.model import ModelConfig, build_hierarchy
from pointlap.probes import ProbeSet, spatial_probes
from pointlap.sparse import SparseMatrix
from pointlap.laplacian import LaplacianPair
from pointlap.training import (TrainConfig, TrainingDiverged, TrainingSample,
                               evaluate, laplacian_loss_on_tape, loss_laplacian,
                               loss_mass, mass_loss_on_tape, prepare_sample,
                               probe_weights, split_dataset, train,
                               write_log_csv)


def two_vertex_pair(w, masses):
    stiffness = SparseMatrix.from_coo(2, [0, 0, 1, 1], [0, 1, 0, 1],
                                      [w, -w, -w, w])
    return LaplacianPair(stiffness, np.asarray(masses, dtype=np.float64), tag="test")


class TestLossLaplacian:
    def test_zero_when_equal(self, blob_sample):
        probes = blob_sample.spectral.take(8)
        assert loss_laplacian(blob_sample.gt, blob_sample.gt, probes) == 0.0

    def test_hand_case(self):
        # probe f = (1, 0): predicted action M^-1 L f = (1, -1), ground
        # truth action (0, 0); w_f = 1/(mean|(0,0)| + 0.1) = 10 exactly and
        # the loss is 10 * |(1,-1)|^2 = 20
        pred = two_vertex_pair(1.0, [1.0, 1.0])
        gt = two_vertex_pair(0.0, [1.0, 1.0])
        probes = ProbeSet(np.array([[1.0], [0.0]]))
        assert np.array_equal(probe_weights(gt.apply(probes.values)), [10.0])
        assert abs(loss_laplacian(pred, gt, probes) - 20.0) < 1e-12

    def test_probe_weight_definition(self):
        gt_applied = np.array([[0.3], [-0.5]])
        assert abs(probe_weights(gt_applied)[0] - 1.0 / (0.4 + 0.1)) < 1e-15

    def test_doubling_probe_rescales_weight(self, blob_sample):
        probes = blob_sample.spectral.take(4)
        g = build_knn(blob_sample.points, k=8)
        rng = np.random.default_rng(0)
        ei, _ = g.undirected_pairs()
        pred = assemble_learned(g, rng.random(len(ei)), np.ones(g.num_vertices))
        base = loss_laplacian(pred, blob_sample.gt, probes)
        doubled = ProbeSet(2.0 * probes.values)
        got = loss_laplacian(pred, blob_sample.gt, doubled)
        # residual quadruples, weight drops per the larger gt response
        dg = blob_sample.gt.apply(probes.values)
        w1 = probe_weights(dg)
        w2 = probe_weights(2.0 * dg)
        dp = pred.apply(probes.values)
        expected = np.sum(w2 * 4.0 * np.sum((dp - dg) ** 2, axis=0))
        assert abs(got - expected) < 1e-9 * max(1.0, expected)
        assert got < 4.0 * base  # weights shrink, so scaling is sub-quadratic

    def test_dim_mismatch(self, blob_sample):
        with pytest.raises(ValueError):
            loss_laplacian(blob_sample.gt, blob_sample.gt, ProbeSet(np.ones((3, 1))))


class TestLossMass:
    def test_values(self):
        assert loss_mass(np.array([1.0, 1.0]), np.array([1.0, 1.0])) == 0.0
        assert loss_mass(np.array([1.0, 1.0]), np.array([1.0, 3.0])) == 2.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        a, b = rng.random((2, 10))
        perm = rng.permutation(10)
        assert abs(loss_mass(a, b) - loss_mass(a[perm], b[perm])) < 1e-15

    def test_shape_check(self):
        with pytest.raises(ValueError):
            loss_mass(np.ones(3), np.ones(4))


class TestTapeLossAgreement:
    def test_matches_numpy_route(self, blob_sample):
        """The differentiable loss and the plain evaluation loss agree."""
        g = blob_sample.graph
        rng = np.random.default_rng(2)
        ei, _ = g.undirected_pairs()
        w = rng.random(len(ei))
        masses = rng.random(g.num_vertices) + 0.5
        masses /= masses.mean()
        probes = ProbeSet.concatenate([
            blob_sample.spectral.take(6), spatial_probes(blob_sample.points, 5)])
        pred = assemble_learned(g, w, masses)
        expected_lap = loss_laplacian(pred, blob_sample.gt, probes)
        expected_mass = loss_mass(masses, blob_sample.gt.mass)

        from pointlap.autodiff import Tensor
        tape = Tape()
        gt_applied = blob_sample.gt.apply(probes.values)
        lap = laplacian_loss_on_tape(tape, Tensor(w[:, None], requires_grad=True),
                                     Tensor(masses[:, None], requires_grad=True),
                                     g, probes.values, gt_applied,
                                     probe_weights(gt_applied))
        massl = mass_loss_on_tape(tape, Tensor(masses[:, None]), blob_sample.gt.mass)
        assert abs(lap.item() - expected_lap) < 1e-9 * max(1.0, expected_lap)
        assert abs(massl.item() - expected_mass) < 1e-12


class TestEvaluate:
    def test_zero_for_identical(self, blob_sample):
        from pointlap.probes import eval_probe_set

        probes = eval_probe_set(blob_sample.gt, blob_sample.points,
                                spectral=blob_sample.spectral)
        res = evaluate(blob_sample.gt, blob_sample.gt, probes)
        assert res.mse == 0.0
        assert res.r_gt1 == 0.0
        assert res.sparsity > 0

    def test_clipping_rule(self):
        # residual (2, 0) on 2 points: per-point mean 2 -> clipped to 1, counted
        pred = two_vertex_pair(1.0, [1.0, 1.0])
        gt = two_vertex_pair(0.0, [1.0, 1.0])
        probes = ProbeSet(np.array([[2.0], [0.0]]))
        res = evaluate(pred, gt, probes)
        assert res.mse == 1.0
        assert res.r_gt1 == 1.0

    def test_mse_symmetric_in_pred_gt(self, blob_sample):
        g = blob_sample.graph
        probes = blob_sample.spectral.take(12)
        uni = uniform_laplacian(g)
        a = evaluate(uni, blob_sample.gt, probes)
        b = evaluate(blob_sample.gt, uni, probes)
        assert abs(a.mse - b.mse) < 1e-12
        assert abs(a.r_gt1 - b.r_gt1) < 1e-15


class TestSplit:
    def test_sizes_disjoint_deterministic(self):
        train_idx, hold_idx = split_dataset(200, 0.2, seed=3)
        assert len(hold_idx) == 40
        assert len(train_idx) == 160
        assert len(np.intersect1d(train_idx, hold_idx)) == 0
        again = split_dataset(200, 0.2, seed=3)
        assert np.array_equal(train_idx, again[0])
        assert not np.array_equal(split_dataset(200, 0.2, seed=4)[1], hold_idx)


def tiny_dataset(tiny_model_config, n=3):
    samples = []
    kinds = ["sphere", "torus", "blended-blob"]
    for i in range(n):
        mesh = normalize_unit_box(make_shape(kinds[i % 3], 162, seed=i))
        samples.append(prepare_sample(f"s{i}", kinds[i % 3], mesh,
                                      tiny_model_config, spectral_count=64))
    return samples


class TestTrainConfig:
    @pytest.mark.parametrize("field", ["epochs", "batch_size"])
    @pytest.mark.parametrize("value", [0, -2])
    def test_rejects_below_one(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    def test_paper_scale(self):
        cfg = TrainConfig.paper_scale(seed=7)
        assert (cfg.epochs, cfg.batch_size, cfg.spectral_count, cfg.seed) == (500, 8, 64, 7)
        assert cfg.lr == TrainConfig().lr


class TestTrainLoop:
    def test_linear_decay_schedule(self, tiny_model_config):
        samples = tiny_dataset(tiny_model_config)
        cfg = TrainConfig(epochs=4, batch_size=2, spectral_count=8,
                          holdout_fraction=0.0, checkpoint_every=0, seed=0)
        res = train(samples, tiny_model_config, cfg)
        lrs = [row["lr"] for row in res.log]
        assert np.allclose(lrs, [1e-3 * (1 - e / 4) for e in range(4)])
        # the published 500-epoch schedule ends at lr0 / 500
        assert abs(1e-3 * (1 - 499 / 500) - 2e-6) < 1e-18

    def test_deterministic_replay(self, tiny_model_config):
        samples = tiny_dataset(tiny_model_config)
        cfg = TrainConfig(epochs=2, batch_size=2, spectral_count=8,
                          holdout_fraction=0.34, checkpoint_every=0, seed=1)
        a = train(samples, tiny_model_config, cfg)
        b = train(tiny_dataset(tiny_model_config), tiny_model_config, cfg)
        assert a.log == b.log

    def test_single_shape_overfit(self, tiny_model_config):
        mesh = normalize_unit_box(make_shape("sphere", 162, seed=0))
        sample = prepare_sample("s", "sphere", mesh, tiny_model_config,
                                spectral_count=16)
        cfg = TrainConfig(epochs=200, batch_size=1, spectral_count=16,
                          holdout_fraction=0.0, checkpoint_every=0, seed=0)
        res = train([sample], tiny_model_config, cfg)
        first = res.log[0]["loss_total"]
        last = np.mean([row["loss_total"] for row in res.log[-10:]])
        assert last < 0.10 * first

    def test_nan_aborts_with_context(self, tiny_model_config):
        samples = tiny_dataset(tiny_model_config)
        cfg = TrainConfig(epochs=1, batch_size=1, spectral_count=4,
                          holdout_fraction=0.0, checkpoint_every=0, seed=0, lr=1e-3)
        from pointlap.model import LaplacianNet
        import pointlap.training as tr

        orig_forward = LaplacianNet.forward

        def poisoned(self, tape, hier):
            for p in self.params.values():
                p.data[...] = np.inf
                break
            return orig_forward(self, tape, hier)

        LaplacianNet.forward = poisoned
        try:
            with pytest.raises(TrainingDiverged):
                tr.train(samples, tiny_model_config, cfg)
        finally:
            LaplacianNet.forward = orig_forward

    def test_empty_dataset_rejected(self, tiny_model_config):
        with pytest.raises(ValueError):
            train([], tiny_model_config, TrainConfig())

    def test_checkpoints_written(self, tiny_model_config, tmp_path):
        samples = tiny_dataset(tiny_model_config)
        cfg = TrainConfig(epochs=2, batch_size=2, spectral_count=8,
                          holdout_fraction=0.0, checkpoint_every=1, seed=0)
        train(samples, tiny_model_config, cfg, out_dir=str(tmp_path))
        assert (tmp_path / "checkpoint_0001" / "manifest.json").exists()
        assert (tmp_path / "checkpoint_final" / "params.bin").exists()

    def test_log_csv(self, tmp_path):
        rows = [{"epoch": 0, "lr": 1e-3, "loss_laplacian": 1.5, "loss_mass": 0.25,
                 "loss_total": 1.525, "holdout_mse": float("nan")}]
        path = tmp_path / "log.csv"
        write_log_csv(path, rows)
        text = path.read_text().splitlines()
        assert text[0] == "epoch,lr,loss_laplacian,loss_mass,loss_total,holdout_mse"
        assert text[1].startswith("0,0.001,1.5,0.25,1.525")
