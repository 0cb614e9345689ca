import dataclasses
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrpath.errors import (
    DataExhausted, InvalidConfig, NonFiniteEval, NonFiniteUpdate, ShapeMismatch,
)
from lrpath.data import SCAN_BLOCK, _corpus_cache, derive_seed
from lrpath.paradigm import Paradigm, build_plan, uniform_spec
from lrpath.schedule import INFINITE, ScheduleConfig, ScheduleKind
from lrpath import trainer
from lrpath.trainer import (
    ADAM_EPS,
    EVAL_BLOCK,
    EVAL_GROUP,
    EvalReport,
    ModelState,
    RunConfig,
    ToyModelConfig,
    _adam_apply,
    backward,
    evaluate_ppl,
    forward_loss,
    init_model,
    make_corpus,
    sample_windows,
    train_phase,
)

# float64, so that finite differences and tight tolerances hold; the float32
# default has its own tests in TestFloat32
TINY = ToyModelConfig(
    vocab_size=16, context_len=4, embed_dim=8, hidden_dim=12, batch_size=8, dtype="float64"
)


def tiny_batch(rng, cfg, count=8):
    return rng.integers(0, cfg.vocab_size, size=(count, cfg.context_len + 1), dtype=np.int64)


class TestModelSetup:
    def test_config_validation(self):
        with pytest.raises(InvalidConfig):
            ToyModelConfig(vocab_size=0, context_len=4, embed_dim=8, hidden_dim=8, batch_size=8)

    @pytest.mark.parametrize(
        "field, value",
        [("hidden_dim", 16.5), ("hidden_dim", 16.0), ("batch_size", True), ("embed_dim", "8")],
    )
    def test_sizes_are_integers(self, field, value):
        # a float size would pass here and fail inside numpy mid-run
        with pytest.raises(InvalidConfig, match=f"{field} must be a positive integer"):
            ToyModelConfig(**{field: value})

    @pytest.mark.parametrize("dtype", ["float16", "int32", np.float32])
    def test_dtype_validation(self, dtype):
        with pytest.raises(InvalidConfig, match="dtype"):
            ToyModelConfig(dtype=dtype)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("tokens_per_step", 0, "tokens_per_step"),
            ("log_stride", 0, "log_stride"),
            ("heldout_tokens", TINY.context_len, "evaluation window"),
            # a fractional count would pass here and fail inside numpy, or
            # pick trace steps that are not whole steps
            ("heldout_tokens", 500.5, "heldout_tokens must be a positive integer, got 500.5"),
            ("log_stride", 2.5, "log_stride must be a positive integer, got 2.5"),
            ("tokens_per_step", 64.0, "tokens_per_step must be a positive integer, got 64.0"),
            ("log_stride", True, "log_stride must be a positive integer, got True"),
        ],
    )
    def test_run_config_validation(self, field, value, message):
        with pytest.raises(InvalidConfig, match=message):
            RunConfig(model=TINY, **{field: value})
        RunConfig(model=TINY, heldout_tokens=TINY.context_len + 1)

    def test_init_deterministic(self):
        a = init_model(TINY, seed=3)
        b = init_model(TINY, seed=3)
        np.testing.assert_array_equal(a.flat, b.flat)
        c = init_model(TINY, seed=4)
        assert not np.array_equal(a.flat, c.flat)

    def test_dtype_must_match_config(self):
        flat64 = init_model(TINY, seed=0).flat
        cfg32 = dataclasses.replace(TINY, dtype="float32")
        with pytest.raises(ShapeMismatch, match="expected float32 parameters, got float64"):
            ModelState(cfg32, flat64)
        assert ModelState(cfg32, flat64.astype("float32")).flat.dtype == np.float32

    def test_param_views_alias_flat(self):
        model = init_model(TINY, seed=0)
        model.params["b1"][:] = 7.5
        start = TINY.vocab_size * TINY.embed_dim + TINY.context_len * TINY.embed_dim * TINY.hidden_dim
        assert model.flat[start] == 7.5

    def test_pickle_carries_one_copy_of_the_parameters(self):
        # a helper process gets states by pickle; `params` are views of
        # `flat` and must not travel as a fourth copy
        model = init_model(TINY, seed=0)
        model.m += 0.5
        model.v += 0.25
        model.t = 7
        blob = pickle.dumps(model)
        assert len(blob) < 3 * model.flat.nbytes + 4096
        back = pickle.loads(blob)
        assert (back.config, back.t) == (model.config, 7)
        for name in ("flat", "m", "v"):
            np.testing.assert_array_equal(getattr(back, name), getattr(model, name))
        back.params["b1"][:] = 7.5
        assert back.flat[TINY.vocab_size * TINY.embed_dim + TINY.context_len * TINY.embed_dim * TINY.hidden_dim] == 7.5


class TestForwardBackward:
    def test_fresh_loss_near_uniform(self):
        model = init_model(TINY, seed=1)
        rng = np.random.default_rng(0)
        loss, _ = forward_loss(model, tiny_batch(rng, TINY))
        assert loss == pytest.approx(math.log(TINY.vocab_size), rel=0.02)

    def test_loss_is_batch_mean(self):
        model = init_model(TINY, seed=1)
        rng = np.random.default_rng(5)
        batch = tiny_batch(rng, TINY, count=6)
        whole, _ = forward_loss(model, batch)
        parts = [forward_loss(model, batch[i : i + 1])[0] for i in range(6)]
        assert whole == pytest.approx(float(np.mean(parts)), rel=1e-12)

    def test_shape_mismatch(self):
        model = init_model(TINY, seed=1)
        bad = np.zeros((4, TINY.context_len), dtype=np.int64)  # missing the target column
        with pytest.raises(ShapeMismatch):
            forward_loss(model, bad)

    def test_gradcheck(self):
        model = init_model(TINY, seed=2)
        rng = np.random.default_rng(11)
        batch = tiny_batch(rng, TINY, count=4)
        loss, cache = forward_loss(model, batch)
        grads = backward(model, cache, np.empty_like(model.flat))
        eps = 1e-5
        check_rng = np.random.default_rng(99)
        for name, g in grads.items():
            flatg = g.ravel()
            p = model.params[name].ravel()
            idx = check_rng.choice(p.size, size=min(25, p.size), replace=False)
            for i in idx:
                old = p[i]
                p[i] = old + eps
                up, _ = forward_loss(model, batch)
                p[i] = old - eps
                down, _ = forward_loss(model, batch)
                p[i] = old
                numeric = (up - down) / (2 * eps)
                denom = max(abs(numeric), abs(flatg[i]), 1e-6)
                assert abs(numeric - flatg[i]) / denom < 1e-4, (name, i)


def adam_first_step(g: float, lr: float):
    """Adam step 1 with a constant gradient g on copies of a fresh state.

    Returns (params before, params after, first moment after).
    """
    model = init_model(TINY, seed=0)
    p, m, v = model.flat.copy(), model.m.copy(), model.v.copy()
    _adam_apply(p, m, v, 1, np.full_like(p, g), lr, np.empty((2, p.size), dtype=p.dtype))
    return model.flat, p, m


class TestAdam:
    def test_zero_grad_no_motion(self):
        before, after, _ = adam_first_step(0.0, lr=1e-3)
        np.testing.assert_array_equal(after, before)

    def test_zero_lr_no_motion_but_state_moves(self):
        before, after, m = adam_first_step(1.0, lr=0.0)
        np.testing.assert_array_equal(after, before)
        assert np.any(m != 0.0)

    def test_first_step_closed_form(self):
        # with constant gradient g, step 1 moves by -lr * g/(|g| + eps*sqrt(1-b2))
        g = 0.25
        lr = 1e-3
        before, after, _ = adam_first_step(g, lr=lr)
        mhat = g
        vhat = g * g
        expected = -lr * mhat / (math.sqrt(vhat) + ADAM_EPS)
        np.testing.assert_allclose(after - before, expected, rtol=1e-12)


SCHED = ScheduleConfig(ScheduleKind.COSINE, 1e-3, 1e-4, 5, 40)


class TestTrainPhase:
    def plan(self):
        return build_plan(Paradigm.ptfs(), uniform_spec(1, 40, SCHED, seed=12))

    def test_deterministic(self):
        plan = self.plan()
        phase = plan.phases[0]
        data = make_corpus(5, 40 * 64 + TINY.context_len + 1) % TINY.vocab_size
        results = []
        for _ in range(2):
            model = init_model(TINY, seed=12)
            out, trace = train_phase(model, phase, data, run_seed=12)
            results.append((out.flat.copy(), out.m.copy(), trace))
        np.testing.assert_array_equal(results[0][0], results[1][0])
        np.testing.assert_array_equal(results[0][1], results[1][1])
        assert results[0][2] == results[1][2]

    def test_inputs_unchanged(self):
        # path switching forks a branch and a continuation from one state
        phase = self.plan().phases[0]
        data = make_corpus(5, 40 * 64 + TINY.context_len + 1) % TINY.vocab_size
        model = init_model(TINY, seed=12)
        flat, m, v, t = model.flat.copy(), model.m.copy(), model.v.copy(), model.t
        out, _ = train_phase(model, phase, data, run_seed=12)
        np.testing.assert_array_equal(model.flat, flat)
        np.testing.assert_array_equal(model.m, m)
        np.testing.assert_array_equal(model.v, v)
        assert model.t == t
        assert out.t == model.t + phase.num_steps
        assert not np.array_equal(out.flat, flat)

    def test_non_finite_update_names_phase_and_step(self):
        cfg = ScheduleConfig(ScheduleKind.CONSTANT, 1e300, 1e300, 0, INFINITE)
        phase = build_plan(Paradigm.ptfs(), uniform_spec(1, 40, cfg, seed=12)).phases[0]
        data = make_corpus(5, 40 * 64 + TINY.context_len + 1) % TINY.vocab_size
        model = init_model(TINY, seed=12)
        with np.errstate(all="ignore"), pytest.raises(NonFiniteUpdate, match=r"phase v1-scratch, step \d+"):
            train_phase(model, phase, data, run_seed=12)

    def test_data_shorter_than_window(self):
        phase = self.plan().phases[0]
        data = make_corpus(5, TINY.context_len) % TINY.vocab_size
        model = init_model(TINY, seed=12)
        with pytest.raises(DataExhausted, match="phase v1-scratch"):
            train_phase(model, phase, data, run_seed=12)

    def test_trace_lrs_match_schedule(self):
        plan = self.plan()
        phase = plan.phases[0]
        data = make_corpus(5, 40 * 64 + TINY.context_len + 1) % TINY.vocab_size
        model = init_model(TINY, seed=12)
        _, trace = train_phase(model, phase, data, run_seed=12, log_stride=10)
        steps = [row[0] for row in trace]
        assert steps == [0, 10, 20, 30, 39]
        for step, lr, _loss in trace:
            assert lr == pytest.approx(phase.lr_profile.lr(step), rel=1e-12)

    def test_loss_decreases(self):
        spec = uniform_spec(1, 300, SCHED.replace(horizon=300), seed=9)
        phase = build_plan(Paradigm.ptfs(), spec).phases[0]
        data = make_corpus(9, 300 * 64 + TINY.context_len + 1) % TINY.vocab_size
        model = init_model(TINY, seed=9)
        _, trace = train_phase(model, phase, data, run_seed=9)
        assert trace[-1][2] < trace[0][2] - 0.1


class TestFloat32:
    CFG = ToyModelConfig()  # the default: float32, at the c6 model size

    def test_init_is_cast_of_float64_init(self):
        m32 = init_model(self.CFG, seed=3)
        m64 = init_model(dataclasses.replace(self.CFG, dtype="float64"), seed=3)
        assert m32.flat.dtype == np.float32
        np.testing.assert_array_equal(m32.flat, m64.flat.astype(np.float32))

    def test_backward_matches_float64(self):
        m32 = init_model(self.CFG, seed=2)
        m64 = ModelState(dataclasses.replace(self.CFG, dtype="float64"), m32.flat.astype(np.float64))
        batch = tiny_batch(np.random.default_rng(11), self.CFG, count=64)
        loss32, cache32 = forward_loss(m32, batch)
        loss64, cache64 = forward_loss(m64, batch)
        assert loss32 == pytest.approx(loss64, rel=1e-6)
        g32 = backward(m32, cache32, np.empty_like(m32.flat))
        g64 = backward(m64, cache64, np.empty_like(m64.flat))
        for name, g in g64.items():
            assert g32[name].dtype == np.float32
            # float32 carries ~7 digits; allow 1e-5 of the largest entry
            np.testing.assert_allclose(
                g32[name], g, rtol=1e-4, atol=1e-5 * np.abs(g).max(), err_msg=name
            )

    def test_state_stays_float32(self, monkeypatch):
        # a silent upcast anywhere in the loop would cancel float32's gain
        seen = []
        adam_apply = trainer._adam_apply

        def spy(*args):
            seen.append({a.dtype for a in args if isinstance(a, np.ndarray)})
            return adam_apply(*args)

        monkeypatch.setattr(trainer, "_adam_apply", spy)
        cfg = dataclasses.replace(TINY, dtype="float32")
        phase = build_plan(Paradigm.ptfs(), uniform_spec(1, 40, SCHED, seed=12)).phases[0]
        data = make_corpus(5, 40 * 64 + cfg.context_len + 1) % cfg.vocab_size
        model = init_model(cfg, seed=12)
        out, _ = train_phase(model, phase, data, run_seed=12)
        # params, m, v, gradient and scratch buffers, at every step
        assert seen == [{np.dtype(np.float32)}] * phase.num_steps
        for arr in (out.flat, out.m, out.v):
            assert arr.dtype == np.float32


def reference_evaluate(model, heldout):
    """Evaluation as one forward pass per EVAL_GROUP windows (no blocking)."""
    width = model.config.context_len + 1
    starts = np.arange(0, len(heldout) - width + 1, width)
    windows = heldout[starts[:, None] + np.arange(width)]
    total = 0.0
    for i in range(0, len(windows), EVAL_GROUP):
        chunk = windows[i : i + EVAL_GROUP]
        loss, _ = forward_loss(model, chunk)
        total += loss * len(chunk)
    nll = total / len(windows)
    return EvalReport(ppl=math.exp(nll), nll=nll, tokens_evaluated=int(len(windows)))


def reference_corpus(seed, size):
    """`make_corpus` with its recurrence on numpy scalars, as an exactness reference."""
    n_modes = 16
    rng = np.random.default_rng(seed)
    coef_a = rng.integers(1, 256, size=n_modes)
    coef_b = rng.integers(1, 256, size=n_modes)
    coef_c = rng.integers(0, 256, size=n_modes)
    switch = rng.random(size) < (1.0 / 512.0)
    mode_draws = rng.integers(0, n_modes, size=size)
    idx = np.flatnonzero(switch)
    boundaries = np.concatenate(([0], idx))
    values = np.concatenate(([mode_draws[0]], mode_draws[idx]))
    mode = values[np.searchsorted(boundaries, np.arange(size), side="right") - 1]
    noisy = rng.random(size) < 0.08
    noise_vals = rng.integers(0, 256, size=size)

    out = np.empty(size, dtype=np.int64)
    out[0] = int(noise_vals[0])
    if size > 1:
        out[1] = int(noise_vals[1])
    a, b, c = coef_a[mode], coef_b[mode], coef_c[mode]
    prev1, prev2 = int(out[min(1, size - 1)]), int(out[0])
    for t in range(2, size):
        if noisy[t]:
            x = int(noise_vals[t])
        else:
            x = (a[t] * prev1 + b[t] * prev2 + c[t]) % 256
        out[t] = x
        prev2 = prev1
        prev1 = x
    return out


class TestEvaluate:
    def test_uniform_model_ppl(self):
        model = init_model(TINY, seed=0)
        # zero out everything: logits are exactly uniform
        model.flat[:] = 0.0
        data = make_corpus(3, 5000)
        report = evaluate_ppl(model, data % TINY.vocab_size)
        assert report.ppl == pytest.approx(TINY.vocab_size, rel=1e-9)

    def test_ppl_is_exp_nll(self):
        model = init_model(TINY, seed=4)
        data = make_corpus(3, 3000) % TINY.vocab_size
        report = evaluate_ppl(model, data)
        assert report.ppl == pytest.approx(math.exp(report.nll), rel=1e-12)
        assert report.tokens_evaluated == 3000 // (TINY.context_len + 1)

    def test_empty(self):
        model = init_model(TINY, seed=4)
        with pytest.raises(DataExhausted, match="^held-out set of 4 tokens is too small$"):
            evaluate_ppl(model, np.zeros(TINY.context_len, dtype=np.int64))

    @pytest.mark.parametrize("scale", [1e6, np.nan], ids=["overflow", "nan"])
    def test_no_finite_ppl(self, scale):
        # at 1e6 the logits lie so far apart that exp(nll) overflows a float
        # (nll above ~709); a NaN parameter gives a NaN nll
        model = init_model(TINY, seed=4)
        model.flat *= scale
        data = make_corpus(3, 3000) % TINY.vocab_size
        with np.errstate(all="ignore"), pytest.raises(
            NonFiniteEval, match=r"^held-out nll \S+ has no finite perplexity$"
        ):
            evaluate_ppl(model, data)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("vocab", [64, 256])
    @pytest.mark.parametrize(
        "windows",
        [1, EVAL_BLOCK - 1, EVAL_BLOCK, EVAL_GROUP, EVAL_GROUP + 1, 5555],
        ids=["one", "block-1", "block", "group", "group+1", "heldout_50k"],
    )
    def test_matches_unblocked_reference(self, dtype, vocab, windows):
        # every size but "block" and "group" ends in a partial block; the
        # last two span two reduction groups
        cfg = ToyModelConfig(vocab_size=vocab, dtype=dtype)
        rng = np.random.default_rng(vocab + windows)
        # weights far from init, so that the per-row losses differ widely
        flat = rng.normal(0.0, 0.3, size=trainer._param_count(cfg)).astype(dtype)
        model = ModelState(cfg, flat)
        # widened first: numpy 2 refuses `uint8 % 256`
        heldout = make_corpus(6, windows * (cfg.context_len + 1) + 3).astype(np.int64) % vocab
        report = evaluate_ppl(model, heldout)
        assert report.tokens_evaluated == windows
        assert report == reference_evaluate(model, heldout)

    def test_peak_memory(self):
        # default model and held-out size: 5555 windows in 22 blocks
        run_cfg = RunConfig()
        model = init_model(run_cfg.model, seed=0)
        heldout = make_corpus(0, run_cfg.heldout_tokens)
        evaluate_ppl(model, heldout)  # warm any lazily allocated state
        tracemalloc.start()
        try:
            evaluate_ppl(model, heldout)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


# Corpus sizes: small ones; where the scan's layout changes, around powers of
# two and where the tokens after the first two fill 1, 2 or 3 blocks exactly;
# and the corpus sizes of the benchmark's workloads.
CORPUS_SIZES = sorted(
    {1, 2, 3, 4, 5, 513, 10_000}
    | {2**k + d for k in (3, 7, 9, 11, 13, 16) for d in (1, 2)}
    | {2 + k * SCAN_BLOCK + d for k in (1, 2, 3) for d in (-1, 0, 1)}
    | {62_800, 69_200, 80_720}
)


class TestCorpus:
    @pytest.mark.parametrize("size", CORPUS_SIZES)
    @pytest.mark.parametrize("seed", [0, 13])
    def test_matches_numpy_scalar_reference(self, seed, size):
        data = make_corpus(seed, size)
        assert data.dtype == np.uint8 and data.shape == (size,)
        np.testing.assert_array_equal(data, reference_corpus(seed, size))

    @given(st.integers(0, 2**32), st.integers(1, 5_000))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_for_any_seed_and_size(self, seed, size):
        _corpus_cache.clear()
        np.testing.assert_array_equal(make_corpus(seed, size), reference_corpus(seed, size))

    def test_deterministic(self):
        np.testing.assert_array_equal(make_corpus(8, 10_000), make_corpus(8, 10_000))

    def test_seed_sensitivity(self):
        assert not np.array_equal(make_corpus(8, 10_000), make_corpus(9, 10_000))

    def test_range_and_dtype(self):
        data = make_corpus(1, 5000)
        assert data.dtype == np.uint8
        assert data.min() >= 0 and data.max() < 256

    def test_structure_beats_uniform(self):
        # consecutive-pair entropy should be far below the 16-bit uniform bound
        data = make_corpus(2, 200_000).astype(np.int64)  # a pair needs 16 bits
        pairs = data[:-1] * 256 + data[1:]
        _, counts = np.unique(pairs, return_counts=True)
        p = counts / counts.sum()
        entropy = -np.sum(p * np.log2(p))
        assert entropy < 13.0

    def test_file_mode(self, tmp_path):
        path = tmp_path / "corpus.bin"
        path.write_bytes(bytes(range(256)) * 40)
        data = make_corpus(0, 5000, path=str(path))
        assert data.size == 5000
        assert data[257] == 1

    def test_cache_holds_eight(self):
        _corpus_cache.clear()
        for size in range(100, 110):
            make_corpus(0, size)
            assert len(_corpus_cache) <= 8
        assert len(_corpus_cache) == 2

    def test_file_too_small(self, tmp_path):
        path = tmp_path / "corpus.bin"
        path.write_bytes(b"abc")
        with pytest.raises(Exception):
            make_corpus(0, 5000, path=str(path))

    def test_sample_windows(self):
        data = make_corpus(4, 2000)
        rng = np.random.default_rng(derive_seed(4, "w"))
        batch = sample_windows(data, rng, count=32, width=9)
        assert batch.shape == (32, 9)
        # every row must be a verbatim slice of the corpus
        for row in batch[:4]:
            starts = np.flatnonzero(data[: data.size - 9] == row[0])
            assert any(np.array_equal(data[s : s + 9], row) for s in starts)


def assert_bytes(tokens: np.ndarray, count: int) -> None:
    """`tokens` holds `count` tokens at one byte each."""
    assert tokens.dtype == np.uint8
    assert tokens.size == tokens.nbytes == count


class TestBytePath:
    """A token is one byte wherever a run holds or ships it."""

    SPEC = uniform_spec(2, 30, SCHED.replace(horizon=INFINITE), seed=5)
    RUN_CFG = RunConfig(
        model=dataclasses.replace(TINY, vocab_size=256), tokens_per_step=40, heldout_tokens=900
    )

    def run(self, run_cfg=RUN_CFG, paradigm=Paradigm.path_switch(0.5)):
        return trainer._Run(build_plan(paradigm, self.SPEC), run_cfg, 3, None)

    def test_generated_corpus(self):
        _corpus_cache.clear()
        data = make_corpus(7, 3001)
        assert_bytes(data, 3001)
        assert not data.flags.writeable
        assert make_corpus(7, 3001) is data  # the cache holds the byte array

    def test_file_corpus(self, tmp_path):
        path = tmp_path / "corpus.bin"
        path.write_bytes(bytes(range(256)) * 40)
        data = make_corpus(0, 5000, path=str(path))
        assert_bytes(data, 5000)
        assert not data.flags.writeable

    def test_file_read_only_as_far_as_needed(self, tmp_path):
        # a sparse 64 MB file takes no disk; reading it whole would take 64 MB
        path = tmp_path / "corpus.bin"
        with open(path, "wb") as fh:
            fh.truncate(64 * 2**20)
        tracemalloc.start()
        try:
            data = make_corpus(0, 4400, path=str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert_bytes(data, 4400)

    def test_short_file_names_its_size(self, tmp_path):
        path = tmp_path / "corpus.bin"
        path.write_bytes(b"abc")
        with pytest.raises(DataExhausted, match=r"holds 3 bytes, need 5000$"):
            make_corpus(0, 5000, path=str(path))

    def test_heldout_and_segments(self):
        run = self.run()
        assert_bytes(run.heldout, self.RUN_CFG.heldout_tokens)
        assert set(run.segments) == {s.segment_id for s in run.manifest.segments}
        for segment in run.manifest.segments:
            assert_bytes(run.segments[segment.segment_id], segment.length)

    @pytest.mark.parametrize("paradigm", [Paradigm.ptfs(), Paradigm.path_switch(0.5)], ids=["ptfs", "path_switch"])
    def test_task_data(self, paradigm):
        # a PTFS phase of version 2 concatenates two increments
        run = self.run(paradigm=paradigm)
        for i in run.children[None]:
            phase, _, data, heldout, *_ = run.task(i)
            assert_bytes(data, phase.num_steps * self.RUN_CFG.tokens_per_step)
            assert heldout is run.heldout

    def test_sample_windows(self):
        data = make_corpus(4, 2000)
        batch = sample_windows(data, np.random.default_rng(1), count=32, width=9)
        assert batch.shape == (32, 9)
        assert_bytes(batch, 32 * 9)

    def test_small_vocab_applies_the_modulo(self):
        run_cfg = dataclasses.replace(self.RUN_CFG, model=TINY)
        run = self.run(run_cfg, Paradigm.ptfs())
        corpus = make_corpus(3, run_cfg.heldout_tokens + 2 * 30 * run_cfg.tokens_per_step)
        assert corpus.max() >= TINY.vocab_size  # so the modulo is seen
        assert_bytes(run.heldout, run_cfg.heldout_tokens)
        np.testing.assert_array_equal(run.heldout, corpus[: run_cfg.heldout_tokens] % TINY.vocab_size)
        for s in run.manifest.segments:
            expected = corpus[s.start_offset : s.start_offset + s.length] % TINY.vocab_size
            np.testing.assert_array_equal(run.segments[s.segment_id], expected)
