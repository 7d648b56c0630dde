import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import ridge_normal_equation_residual
from shiftimpute.masking import MarSpec, apply_mar_mask
from shiftimpute.data import DataMatrix
from shiftimpute.regressors import (
    ForestSpec,
    MlpSpec,
    RegressorSpec,
    fit_weighted_forest,
    fit_weighted_mlp,
    fit_weighted_ridge,
    fit_regressor,
    mlp_loss_and_gradient,
    predict,
    weighted_mse,
)


class TestWeightedRidge:
    def test_exact_interpolation(self):
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = 2.0 * x[:, 0]
        model = fit_weighted_ridge(x, y, np.ones(4), 0.0)
        assert model.coefficients[0] == pytest.approx(2.0, abs=1e-10)
        assert model.intercept == pytest.approx(0.0, abs=1e-10)

    def test_heavy_ridge_limit(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(200, 2))
        y = rng.normal(size=200)
        w = rng.uniform(0.5, 2.0, 200)
        model = fit_weighted_ridge(x, y, w, 1e9)
        assert np.all(np.abs(model.coefficients) < 1e-6)
        wmean = float((w * y).sum() / w.sum())
        assert model.intercept == pytest.approx(wmean, rel=1e-6)

    def test_zero_weight_rows_dropped(self):
        # oracle: the fit must match a plain fit on the first two points
        x = np.array([[1.0], [2.0], [3.0]])
        y = np.array([1.0, 2.0, 10.0])
        model = fit_weighted_ridge(x, y, np.array([1.0, 1.0, 0.0]), 0.0)
        assert model.coefficients[0] == pytest.approx(1.0, abs=1e-10)
        assert model.intercept == pytest.approx(0.0, abs=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(1e-3, 1e3), st.integers(0, 10_000))
    def test_scale_equivariance(self, c, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(30, 2))
        y = rng.normal(size=30)
        w = rng.uniform(0.1, 1.0, 30)
        a = fit_weighted_ridge(x, y, w, 0.5)
        b = fit_weighted_ridge(x, y, c * w, 0.5)
        np.testing.assert_allclose(a.coefficients, b.coefficients, atol=1e-9)
        assert a.intercept == pytest.approx(b.intercept, abs=1e-9)

    def test_normal_equation_residual(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(5000, 8))
        y = x @ rng.normal(size=8) + rng.normal(size=5000)
        w = rng.uniform(0.2, 3.0, 5000)
        for lam in (0.0, 1e-3, 10.0):
            model = fit_weighted_ridge(x, y, w, lam)
            assert ridge_normal_equation_residual(model, x, y, w, lam) < 1e-8

    @pytest.mark.parametrize("lam", [-1.0, float("nan"), float("inf")])
    def test_penalty_must_be_nonnegative_and_finite(self, lam):
        # a NaN penalty would otherwise come back as a NaN model
        with pytest.raises(ValueError, match="ridge_lambda must be nonnegative"):
            fit_weighted_ridge(np.eye(3), np.ones(3), np.ones(3), lam)

    def test_singular_system_recommends_penalty(self):
        x = np.ones((10, 2))  # duplicate constant columns, singular at lambda 0
        y = np.arange(10.0)
        with pytest.raises(ValueError, match="ridge_lambda > 0"):
            fit_weighted_ridge(x, y, np.ones(10), 0.0)


def _integer_problem(seed, n=30, p=3):
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 12, size=(n, p)).astype(float)
    y = rng.integers(-8, 9, size=n).astype(float)
    w = rng.integers(1, 4, size=n).astype(float)
    return x, y, w


class TestWeightedForest:
    def test_constant_targets_single_leaf(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(40, 3))
        y = np.full(40, 3.25)
        spec = ForestSpec(n_trees=5, max_depth=4, min_leaf_weight=1.0)
        model = fit_weighted_forest(x, y, np.ones(40), spec, 1)
        preds = predict(model, rng.normal(size=(10, 3)))
        np.testing.assert_allclose(preds, 3.25, atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_replication_equivalence(self, seed):
        # integer-valued data: all split statistics are exact, so the
        # weighted tree must equal the tree on the row-replicated dataset
        x, y, w = _integer_problem(seed)
        spec = ForestSpec(n_trees=1, max_depth=5, min_leaf_weight=2.0,
                          feature_subsample=1.0, bootstrap=False)
        weighted = fit_weighted_forest(x, y, w, spec, 0)
        reps = np.repeat(np.arange(len(y)), w.astype(int))
        replicated = fit_weighted_forest(x[reps], y[reps], np.ones(len(reps)), spec, 0)
        assert weighted.trees == replicated.trees

    def test_step_function_split_matches_exhaustive_scan(self):
        rng = np.random.default_rng(3)
        x = np.sort(rng.uniform(-1, 1, 20)).reshape(-1, 1)
        cut = 0.5 * (x[11, 0] + x[12, 0])
        y = (x[:, 0] > cut).astype(float) * 2.0
        spec = ForestSpec(n_trees=1, max_depth=1, min_leaf_weight=1.0,
                          feature_subsample=1.0, bootstrap=False)
        model = fit_weighted_forest(x, y, np.ones(20), spec, 0)
        root = model.trees[0]
        # exhaustive scan oracle over every midpoint
        best_gain, best_thr = -np.inf, None
        total_sse = ((y - y.mean()) ** 2).sum()
        for t in range(19):
            thr = 0.5 * (x[t, 0] + x[t + 1, 0])
            left, right = y[: t + 1], y[t + 1:]
            gain = total_sse - ((left - left.mean()) ** 2).sum() \
                - ((right - right.mean()) ** 2).sum()
            if gain > best_gain:
                best_gain, best_thr = gain, thr
        assert root.threshold == pytest.approx(best_thr)
        assert x[11, 0] < root.threshold < x[12, 0]

    def test_adjacent_float_split_keeps_both_children(self):
        # the midpoint of two neighbouring floats rounds up to the larger one;
        # a threshold there would send every row left and leave a NaN leaf
        a = 3.0000000000000004
        b = float(np.nextafter(a, 4.0))
        assert 0.5 * (a + b) == b
        x = np.array([[a]] * 4 + [[b]] * 4)
        y = np.array([0.0] * 4 + [1.0] * 4)
        spec = ForestSpec(n_trees=1, max_depth=1, min_leaf_weight=1.0,
                          feature_subsample=1.0, bootstrap=False)
        model = fit_weighted_forest(x, y, np.ones(8), spec, 0)
        root = model.trees[0]
        assert a <= root.threshold < b
        np.testing.assert_array_equal(predict(model, x), y)

    def test_predictions_bounded_by_training_targets(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(200, 4))
        y = rng.normal(size=200) * 3.0
        w = rng.uniform(0.0, 2.0, 200)
        w[0] = 1.0  # keep positive mass
        model = fit_weighted_forest(x, y, w, ForestSpec(n_trees=10), 2)
        preds = predict(model, rng.normal(size=(500, 4)))
        assert preds.min() >= y.min() - 1e-12
        assert preds.max() <= y.max() + 1e-12

    def test_deterministic_given_spec(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(80, 3))
        y = rng.normal(size=80)
        spec = ForestSpec(n_trees=4, max_depth=3)
        a = fit_weighted_forest(x, y, np.ones(80), spec, 9)
        b = fit_weighted_forest(x, y, np.ones(80), spec, 9)
        assert a.trees == b.trees


# The mini-batch loop as it stood before the training loop gathered each
# epoch once and computed only the forward pass for the epoch loss: one
# fancy-index gather per batch and a full loss-and-gradient pass for every
# step and epoch. Kept verbatim as the oracle the fit must reproduce bit for
# bit.
def _reference_loss_and_gradient(params, x, y, w):
    w_hidden, b_hidden, w_out, b_out = params
    sw = w.sum()
    hidden = np.tanh(x @ w_hidden + b_hidden)
    pred = hidden @ w_out + b_out
    resid = pred - y
    loss = float((w * resid * resid).sum() / sw)
    dpred = 2.0 * w * resid / sw
    g_wout = hidden.T @ dpred
    g_bout = float(dpred.sum())
    dhidden = np.outer(dpred, w_out) * (1.0 - hidden * hidden)
    g_whidden = x.T @ dhidden
    g_bhidden = dhidden.sum(axis=0)
    return loss, (g_whidden, g_bhidden, g_wout, g_bout)


def _reference_glorot(rng, fan_in, fan_out, shape):
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def _reference_fit_mlp(x, y, w, spec, seed):
    keep = w > 0
    x, y, w = x[keep], y[keep], w[keep]
    n, p = x.shape
    h = spec.hidden_units
    rng = np.random.default_rng(seed)
    w_hidden = _reference_glorot(rng, p, h, (p, h))
    b_hidden = np.zeros(h)
    w_out = _reference_glorot(rng, h, 1, (h,))
    b_out = 0.0
    trace = []
    for _ in range(spec.epochs):
        perm = rng.permutation(n)
        for start in range(0, n, spec.batch_size):
            batch = perm[start:start + spec.batch_size]
            _, grads = _reference_loss_and_gradient(
                (w_hidden, b_hidden, w_out, b_out), x[batch], y[batch], w[batch]
            )
            w_hidden = w_hidden - spec.learning_rate * grads[0]
            b_hidden = b_hidden - spec.learning_rate * grads[1]
            w_out = w_out - spec.learning_rate * grads[2]
            b_out = b_out - spec.learning_rate * grads[3]
        loss, _ = _reference_loss_and_gradient((w_hidden, b_hidden, w_out, b_out), x, y, w)
        if not np.isfinite(loss) or loss > 1e10:
            raise RuntimeError(
                f"MLP diverged at epoch {len(trace) + 1}: loss={loss!r} "
                f"(learning_rate={spec.learning_rate})"
            )
        trace.append(loss)
    return (w_hidden, b_hidden, w_out, float(b_out)), tuple(trace)


class TestMlpMatchesReferenceLoop:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 90),
        p=st.integers(1, 5),
        hidden_units=st.integers(1, 12),
        batch=st.one_of(st.just(1), st.integers(2, 40), st.just(1000)),
        epochs=st.integers(1, 4),
        learning_rate=st.sampled_from([0.005, 0.05, 0.3]),
        zero_frac=st.sampled_from([0.0, 0.3]),
        seed=st.integers(0, 2**31 - 1),
    )
    @example(n=1, p=1, hidden_units=1, batch=1, epochs=2, learning_rate=0.05,
             zero_frac=0.0, seed=0)
    @example(n=40, p=3, hidden_units=6, batch=1000, epochs=3, learning_rate=0.05,
             zero_frac=0.3, seed=1)
    def test_fit_is_bit_identical(self, n, p, hidden_units, batch, epochs,
                                  learning_rate, zero_frac, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, p))
        y = x.sum(axis=1) + rng.normal(size=n)
        w = rng.uniform(0.1, 3.0, n)
        w[rng.random(n) < zero_frac] = 0.0
        w[rng.integers(n)] = 1.0  # positive total mass
        spec = MlpSpec(hidden_units=hidden_units, learning_rate=learning_rate,
                       epochs=epochs, batch_size=batch)
        try:
            params, trace = _reference_fit_mlp(x, y, w, spec, seed % 1000)
        except RuntimeError as exc:
            with pytest.raises(RuntimeError) as info:
                fit_weighted_mlp(x, y, w, spec, seed % 1000)
            assert str(info.value) == str(exc)
            return
        model = fit_weighted_mlp(x, y, w, spec, seed % 1000)
        for got, want in zip(model.params, params):
            assert np.array_equal(got, want)
        assert model.loss_trace == trace
        # the loss-and-gradient the finite-difference checks test is the
        # reference's, bit for bit
        loss, grads = mlp_loss_and_gradient(params, x, y, w)
        ref_loss, ref_grads = _reference_loss_and_gradient(params, x, y, w)
        assert loss == ref_loss
        for got, want in zip(grads, ref_grads):
            assert np.array_equal(got, want)
        hidden = np.tanh(x @ params[0] + params[1])
        assert np.array_equal(predict(model, x), hidden @ params[2] + params[3])


class TestMlpFitReadsItsRowsInPlace:
    # with every weight positive the fit reads x, y and w where they are, and
    # the engine takes its train_weighted_mse from the last epoch loss
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 60),
        p=st.integers(1, 4),
        hidden_units=st.integers(1, 8),
        batch=st.one_of(st.just(1), st.integers(2, 30), st.just(1000)),
        epochs=st.integers(1, 3),
        offset=st.integers(0, 5),
        seed=st.integers(0, 2**31 - 1),
    )
    @example(n=1, p=1, hidden_units=1, batch=1, epochs=1, offset=0, seed=0)
    @example(n=1, p=2, hidden_units=3, batch=1000, epochs=2, offset=3, seed=1)
    @example(n=25, p=3, hidden_units=4, batch=1000, epochs=2, offset=2, seed=2)
    def test_last_epoch_loss_is_the_weighted_mse(self, n, p, hidden_units, batch,
                                                 epochs, offset, seed):
        rng = np.random.default_rng(seed)
        rows = slice(offset, offset + n)
        block = rng.normal(size=(n + offset + 3, p))
        y_all = block.sum(axis=1) + rng.normal(size=block.shape[0])
        w_all = rng.uniform(0.1, 3.0, block.shape[0])
        kept = block.tobytes(), y_all.tobytes(), w_all.tobytes()
        x, y, w = block[rows], y_all[rows], w_all[rows]
        spec = MlpSpec(hidden_units=hidden_units, learning_rate=0.05,
                       epochs=epochs, batch_size=batch)
        model = fit_weighted_mlp(x, y, w, spec, seed % 1000)
        assert model.loss_trace[-1] == weighted_mse(model, x, y, w)
        fresh = fit_weighted_mlp(x.copy(), y.copy(), w.copy(), spec, seed % 1000)
        for got, want in zip(model.params, fresh.params):
            assert np.array_equal(got, want)
        assert model.loss_trace == fresh.loss_trace
        assert (block.tobytes(), y_all.tobytes(), w_all.tobytes()) == kept
        assert not any(np.shares_memory(a, arr) for a in model.params[:3]
                       for arr in (block, y_all, w_all))


class TestWeightedMlp:
    def test_zero_weight_rows_equal_deleted_rows(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(50, 2))
        y = x[:, 0] - 0.5 * x[:, 1]
        w = np.ones(50)
        dead = rng.random(50) < 0.3
        w[dead] = 0.0
        spec = MlpSpec(hidden_units=8, learning_rate=0.05, epochs=20,
                       batch_size=16)
        with_zeros = fit_weighted_mlp(x, y, w, spec, 3)
        deleted = fit_weighted_mlp(x[~dead], y[~dead], w[~dead], spec, 3)
        assert with_zeros.loss_trace[-1] == pytest.approx(
            deleted.loss_trace[-1], abs=1e-10
        )
        np.testing.assert_allclose(with_zeros.w_hidden, deleted.w_hidden)

    def test_analytic_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(5, 2))
        y = rng.normal(size=5)
        w = rng.uniform(0.5, 2.0, 5)
        params = (
            rng.normal(0, 0.5, (2, 3)),
            rng.normal(0, 0.5, 3),
            rng.normal(0, 0.5, 3),
            float(rng.normal()),
        )
        _, grads = mlp_loss_and_gradient(params, x, y, w)
        eps = 1e-5

        def loss_at(p):
            return mlp_loss_and_gradient(p, x, y, w)[0]

        for pi in range(4):
            analytic = np.atleast_1d(np.asarray(grads[pi], dtype=float))
            flat_param = np.atleast_1d(np.asarray(params[pi], dtype=float))
            numeric = np.zeros_like(flat_param)
            it = np.nditer(flat_param, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                bump = [np.array(p, dtype=float, copy=True) if k == pi else p
                        for k, p in enumerate(params)]
                plus = [np.array(p, dtype=float, copy=True) for p in bump[:]]
                minus = [np.array(p, dtype=float, copy=True) for p in bump[:]]
                np.atleast_1d(plus[pi])[idx] += eps
                np.atleast_1d(minus[pi])[idx] -= eps
                numeric[idx] = (loss_at(tuple(plus)) - loss_at(tuple(minus))) / (2 * eps)
                it.iternext()
            scale = np.maximum(np.abs(numeric), 1e-8)
            rel = np.abs(analytic - numeric) / scale
            assert rel.max() < 1e-4, f"param block {pi}"

    def test_learns_linear_target(self):
        # convergence oracle: on standardized data a ridge fit is exact,
        # and the network must get within 0.05 train RMSE of it
        rng = np.random.default_rng(8)
        x = rng.normal(size=(400, 1))
        y = 3.0 * x[:, 0]
        x = (x - x.mean()) / x.std()
        y = (y - y.mean()) / y.std()
        spec = MlpSpec(hidden_units=32, learning_rate=0.05, epochs=300,
                       batch_size=64)
        model = fit_weighted_mlp(x, y, np.ones(400), spec, 5)
        ridge = fit_weighted_ridge(x, y, np.ones(400), 0.0)
        assert float(np.sqrt(np.mean((predict(ridge, x) - y) ** 2))) < 1e-10
        rmse = float(np.sqrt(np.mean((predict(model, x) - y) ** 2)))
        assert rmse < 0.05

    def test_loss_trace_smoothed_non_increasing(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(300, 2))
        y = np.tanh(x[:, 0]) + 0.3 * x[:, 1]
        spec = MlpSpec(hidden_units=16, learning_rate=0.02, epochs=100,
                       batch_size=32)
        model = fit_weighted_mlp(x, y, np.ones(300), spec, 6)
        trace = np.array(model.loss_trace)
        smoothed = np.convolve(trace, np.ones(5) / 5, mode="valid")
        assert np.all(np.diff(smoothed) <= 1e-6)

    def test_divergence_aborts_with_diagnostic(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(60, 2)) * 10
        y = rng.normal(size=60) * 10
        spec = MlpSpec(hidden_units=8, learning_rate=50.0, epochs=50,
                       batch_size=16)
        with pytest.raises(RuntimeError, match="diverged"):
            fit_weighted_mlp(x, y, np.ones(60), spec, 7)


class TestPredict:
    def test_affine_evaluation(self):
        model = fit_weighted_ridge(np.array([[0.0], [1.0]]), np.array([1.0, 3.0]),
                                   np.ones(2), 0.0)
        assert predict(model, np.array([[3.0]]))[0] == pytest.approx(7.0, abs=1e-9)

    def test_forest_of_constants(self):
        x = np.zeros((5, 2)) + np.arange(5).reshape(-1, 1)
        y = np.full(5, 4.5)
        model = fit_weighted_forest(x, y, np.ones(5), ForestSpec(n_trees=3), 0)
        np.testing.assert_allclose(predict(model, x), 4.5, atol=1e-12)

    def test_empty_query(self):
        x = np.array([[0.0], [1.0]])
        ridge = fit_weighted_ridge(x, np.array([0.0, 1.0]), np.ones(2), 0.0)
        forest = fit_weighted_forest(x, np.array([0.0, 1.0]), np.ones(2),
                                     ForestSpec(n_trees=2), 0)
        mlp = fit_weighted_mlp(x, np.array([0.0, 1.0]), np.ones(2),
                               MlpSpec(hidden_units=4, epochs=2), 0)
        for model in (ridge, forest, mlp):
            assert predict(model, np.empty((0, 1))).shape == (0,)

    def test_width_mismatch(self):
        for kind in ("ridge", "forest", "mlp"):
            spec = RegressorSpec(kind=kind, forest=ForestSpec(n_trees=2),
                                 mlp=MlpSpec(hidden_units=4, epochs=2))
            model = fit_regressor(spec, np.array([[0.0], [1.0]]),
                                  np.array([0.0, 1.0]), np.ones(2), 0)
            with pytest.raises(ValueError, match="model expects 1 features, got 2"):
                predict(model, np.zeros((3, 2)))

    def test_unfitted_object_rejected(self):
        with pytest.raises(TypeError, match="not a fitted regressor: dict"):
            predict({}, np.zeros((3, 2)))


class TestWeightedMse:
    def setup_method(self):
        # identity-ish model: slope 1, intercept 0
        self.model = fit_weighted_ridge(np.array([[0.0], [1.0]]),
                                        np.array([0.0, 1.0]), np.ones(2), 0.0)

    def test_perfect_predictions(self):
        x = np.array([[0.5], [2.0]])
        assert weighted_mse(self.model, x, x[:, 0], np.ones(2)) == pytest.approx(0.0, abs=1e-18)

    def test_unit_weights(self):
        x = np.array([[1.0], [2.0]])
        y = np.array([2.0, 1.0])  # residuals -1, +1
        assert weighted_mse(self.model, x, y, np.ones(2)) == pytest.approx(1.0)

    def test_hand_arithmetic(self):
        x = np.array([[1.0], [2.0]])
        y = np.array([0.0, 3.0])  # residuals 1, -1
        assert weighted_mse(self.model, x, y, np.array([3.0, 1.0])) == pytest.approx(1.0)
        y2 = np.array([-1.0, 2.0])  # residuals 2, 0
        assert weighted_mse(self.model, x, y2, np.array([1.0, 3.0])) == pytest.approx(1.0)


class TestArgminConsistency:
    def test_oracle_weighted_fit_matches_missing_side_fit(self):
        # well-specified linear target: both minimizers coincide, so the
        # weighted fit on observed rows must match a direct fit on missing rows
        rng = np.random.default_rng(11)
        n = 20_000
        x = rng.uniform(-np.sqrt(3), np.sqrt(3), size=(n, 2))
        y = 1.4 * x[:, 0] - 0.8 * x[:, 1] + 0.5 * rng.standard_normal(n)
        values = np.column_stack([x, y])
        data = DataMatrix(values, ("a", "b", "t"))
        spec = MarSpec((2,), ((0, 1),), alpha=1.5, target_missing_rate=0.3, seed=12)
        ds, mech = apply_mar_mask(data, spec)
        obs = ds.mask.observed[:, 2]
        p = mech.probabilities[:, 0]
        oracle_w = ((1 - p) / p * (p.mean() / (1 - p.mean())))[obs]
        weighted_fit = fit_weighted_ridge(x[obs], y[obs], oracle_w, 1e-6)
        direct_fit = fit_weighted_ridge(x[~obs], y[~obs], np.ones((~obs).sum()), 1e-6)
        mse_w = float(np.mean((predict(weighted_fit, x[~obs]) - y[~obs]) ** 2))
        mse_d = float(np.mean((predict(direct_fit, x[~obs]) - y[~obs]) ** 2))
        assert mse_w <= 1.05 * mse_d


class TestRegressorSpec:
    def test_json_round_trip(self):
        spec = RegressorSpec(kind="forest", ridge_lambda=0.5,
                             forest=ForestSpec(n_trees=7, max_depth=3),
                             mlp=MlpSpec(hidden_units=4))
        assert RegressorSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            RegressorSpec(kind="boosting")
