"""Differential identity: the vectorized batch kernels vs the scalar loop.

The batch kernel's whole contract is *bit-identity* — same
mispredictions, same MPKI, same ``state_hash()`` as the scalar
reference on every trace (``docs/vectorization.md`` explains why the
rewrites preserve it).  These tests enforce the contract three ways:

* a quick per-predictor sweep over a few suite + wild traces that runs
  in tier-1 on every commit;
* a hypothesis harness that replays random traces event by event
  through the kernel registry and a manual predict/train loop, plus
  random ``stop_after`` prefix cuts through the public entry points;
* a full 40-trace + WILD1-4 sweep per ported predictor, marked
  ``vectorized`` and gated behind ``REPRO_FULL_DIFFERENTIAL=1``
  (minutes of scalar BF-Neural; ``run_all_experiments.sh`` runs it).

The array-state substrate (``repro.common.tablestate``) gets its own
differential tests against the scalar twins it replaces: ``mix64``,
the packed-history shift register, the perceptron's ±1 history and the
incremental ``FoldedHistory`` fold.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.bitops import mix64
from repro.common.histories import FoldedHistory
from repro.common.tablestate import (
    folded_history_series,
    mix64_array,
    packed_history_series,
    signed_history_matrix,
    table_array,
    table_list,
)
from repro.core import BFISLTage, BFNeural, BFNeuralConfig, BFTage, BFTageConfig
from repro.predictors import Bimodal, GShare, ISLTage, Tage, TageConfig
from repro.predictors.perceptron import GlobalPerceptron
from repro.sim import simulate
from repro.sim.batchkernel import KERNEL_MODES, kernel_for, simulate_batch
from repro.trace.records import Trace, TraceMetadata
from repro.workloads import SUITE_NAMES, WILD_NAMES, build_trace


def _small_tage_config() -> TageConfig:
    """Four small tagged tables (collisions and allocations are common)
    and a 512-branch useful-aging period, so aging happens mid-segment
    and on checkpoint cuts."""
    return TageConfig(
        num_tables=4,
        base_log2_entries=10,
        log2_entries=[8, 8, 9, 9],
        tag_bits=[7, 8, 9, 10],
        useful_reset_period=512,
    )


def _small_isl(**kwargs) -> ISLTage:
    return ISLTage(_small_tage_config(), sc_entries=256, **kwargs)


def _small_bf_config(**kwargs) -> BFTageConfig:
    """The small TAGE tables over a small BF-GHR: segment dedup, eviction
    and deep-boundary removal all fire within a few hundred events, the
    widths (4, 4, 4, 8, 8) share walks, and the longest history (17)
    truncates the 19-position BF-GHR."""
    return BFTageConfig(
        num_tables=4,
        base_log2_entries=10,
        history_lengths=[2, 6, 11, 17],
        log2_entries=[8, 8, 9, 9],
        tag_bits=[7, 8, 9, 10],
        bst_entries=256,
        boundaries=[4, 8, 12, 16, 24, 32],
        rs_size=3,
        unfiltered_bits=4,
        useful_reset_period=512,
        **kwargs,
    )


#: Every predictor with a registered kernel, at test-sized geometries.
PORTED = {
    "bimodal": Bimodal,
    "gshare": GShare,
    "perceptron": lambda: GlobalPerceptron(256, 24),
    "bf-neural": BFNeural,
    "tage": lambda: Tage(_small_tage_config()),
    "isl-tage": _small_isl,
    "bf-tage": lambda: BFTage(_small_bf_config()),
    "bf-isl-tage": lambda: BFISLTage(_small_bf_config()),
}

QUICK_TRACES = ("SPEC03", "SPEC17", "WILD2")
QUICK_BRANCHES = 4_000


def _assert_identical(factory, trace, **kwargs):
    """Run scalar and vectorized twins; assert results and state agree."""
    scalar_p, vec_p = factory(), factory()
    scalar = simulate(scalar_p, trace, **kwargs)
    vec = simulate_batch(vec_p, trace, kernel="vectorized", **kwargs)
    assert vec.mispredictions == scalar.mispredictions
    assert vec.mpki == scalar.mpki
    assert vec.branches == scalar.branches
    assert vec_p.state_hash() == scalar_p.state_hash()
    return scalar, vec


def _trace_from(events, name="hypo"):
    pcs = [pc for pc, _ in events]
    outcomes = [taken for _, taken in events]
    metadata = TraceMetadata(
        name=name, category="synthetic", instruction_count=max(1, 5 * len(events))
    )
    return Trace(metadata, pcs, outcomes)


@pytest.mark.parametrize("name", sorted(PORTED))
@pytest.mark.parametrize("trace_name", QUICK_TRACES)
def test_quick_differential(name, trace_name):
    trace = build_trace(trace_name, QUICK_BRANCHES)
    _assert_identical(PORTED[name], trace)


def test_warmup_exclusion_matches_scalar():
    trace = build_trace("SPEC05", QUICK_BRANCHES)
    _assert_identical(Bimodal, trace, warmup_branches=500)


def test_provider_attribution_matches_scalar():
    trace = build_trace("SPEC11", QUICK_BRANCHES)
    scalar, vec = _assert_identical(BFNeural, trace, track_providers=True)
    assert vec.provider_hits == scalar.provider_hits
    assert sum(vec.provider_hits.values()) == len(trace)


def test_checkpoint_stream_matches_scalar():
    trace = build_trace("SPEC08", QUICK_BRANCHES)
    cuts = {}
    for label, run in (("scalar", simulate), ("vec", simulate_batch)):
        collected = []
        run(
            GShare(),
            trace,
            checkpoint_every=700,
            on_checkpoint=collected.append,
        )
        cuts[label] = [
            (c.position, c.mispredictions, c.state_hash()) for c in collected
        ]
    assert cuts["vec"] == cuts["scalar"]
    assert cuts["vec"]  # the trace is long enough to cut at least once


def test_resume_from_scalar_checkpoint():
    # A checkpoint cut by the scalar loop resumes bit-identically
    # through the batch kernel, and vice versa.
    trace = build_trace("SPEC02", QUICK_BRANCHES)
    head = simulate(BFNeural(), trace, stop_after=1_500)
    assert head.checkpoint is not None
    straight = simulate(BFNeural(), trace)
    resumed_p = BFNeural()
    resumed = simulate_batch(
        resumed_p, trace, kernel="vectorized", resume_from=head.checkpoint
    )
    assert resumed.mispredictions == straight.mispredictions
    vec_head_p = BFNeural()
    vec_head = simulate_batch(
        vec_head_p, trace, kernel="vectorized", stop_after=1_500
    )
    assert vec_head.checkpoint.state_hash() == head.checkpoint.state_hash()
    back = simulate(BFNeural(), trace, resume_from=vec_head.checkpoint)
    assert back.mispredictions == straight.mispredictions


@pytest.mark.parametrize(
    "factory",
    [
        _small_isl,
        lambda: _small_isl(with_loop_predictor=False),
        lambda: _small_isl(with_statistical_corrector=False),
        lambda: _small_isl(with_loop_predictor=False, with_statistical_corrector=False),
    ],
    ids=["loop+sc", "sc-only", "loop-only", "core-only"],
)
def test_isl_provider_attribution_matches_scalar(factory):
    # WILD1 exercises both overlays: the loop predictor and the SC each
    # provide some predictions when enabled.
    trace = build_trace("WILD1", QUICK_BRANCHES)
    scalar, vec = _assert_identical(factory, trace, track_providers=True)
    assert vec.provider_hits == scalar.provider_hits
    assert sum(vec.provider_hits.values()) == len(trace)
    predictor = factory()
    assert ("loop" in scalar.provider_hits) == (predictor.loop is not None)
    assert ("sc" in scalar.provider_hits) == predictor.with_statistical_corrector


def test_tage_provider_attribution_matches_scalar():
    trace = build_trace("SPEC11", QUICK_BRANCHES)
    scalar, vec = _assert_identical(PORTED["tage"], trace, track_providers=True)
    assert vec.provider_hits == scalar.provider_hits
    assert {"base", "T1", "T4"} <= set(vec.provider_hits)


@pytest.mark.parametrize("name", ["tage", "isl-tage", "bf-tage", "bf-isl-tage"])
@pytest.mark.parametrize("every", [23, 512, 700])
def test_tage_checkpoint_stream_matches_scalar(name, every):
    # Cuts every 512 branches land exactly on useful-aging events; cuts
    # every 700 leave aging mid-segment.  Cuts every 23 leave BF-GHR
    # records in the commit ring that cross the deepest boundary (32)
    # only in a later segment.
    trace = build_trace("SPEC08", QUICK_BRANCHES)
    cuts = {}
    for label, run in (("scalar", simulate), ("vec", simulate_batch)):
        collected = []
        run(
            PORTED[name](),
            trace,
            track_providers=True,
            checkpoint_every=every,
            on_checkpoint=collected.append,
        )
        cuts[label] = [
            (c.position, c.mispredictions, c.provider_hits, c.state_hash())
            for c in collected
        ]
    assert cuts["vec"] == cuts["scalar"]
    assert len(cuts["vec"]) >= 5


@pytest.mark.parametrize("name", ["tage", "isl-tage", "bf-tage", "bf-isl-tage"])
def test_tage_resume_across_kernels(name):
    # A scalar cut resumes through the kernel and a kernel cut resumes
    # through the scalar loop, both bit-identical to a straight run.
    factory = PORTED[name]
    trace = build_trace("WILD1", QUICK_BRANCHES)
    straight_p = factory()
    straight = simulate(straight_p, trace)
    scalar_head = simulate(factory(), trace, stop_after=1_537)
    vec_head = simulate_batch(factory(), trace, stop_after=1_537)
    assert vec_head.checkpoint.state_hash() == scalar_head.checkpoint.state_hash()
    for head, tail_run in ((scalar_head, simulate_batch), (vec_head, simulate)):
        resumed_p = factory()
        resumed = tail_run(resumed_p, trace, resume_from=head.checkpoint)
        assert resumed.mispredictions == straight.mispredictions
        assert resumed_p.state_hash() == straight_p.state_hash()


def test_bftage10_checkpoint_stream_matches_scalar():
    # The paper geometry: 777-branch cuts are shallower than the deepest
    # boundaries (up to 2,048), so records cross segments in a later
    # kernel call than the one that committed them.
    trace = build_trace("SPEC08", 3_000)
    cuts = {}
    for label, run in (("scalar", simulate), ("vec", simulate_batch)):
        collected = []
        run(
            BFTage(BFTageConfig.for_tables(10)),
            trace,
            track_providers=True,
            checkpoint_every=777,
            on_checkpoint=collected.append,
        )
        cuts[label] = [
            (c.position, c.mispredictions, c.provider_hits, c.state_hash())
            for c in collected
        ]
    assert cuts["vec"] == cuts["scalar"]
    assert len(cuts["vec"]) == 3


@pytest.mark.parametrize(
    "factory",
    [
        lambda: ISLTage(core=BFTage(_small_bf_config())),
        lambda: ISLTage(core=BFTage(_small_bf_config()), with_loop_predictor=False),
        lambda: ISLTage(core=BFTage(_small_bf_config()), with_statistical_corrector=False),
    ],
    ids=["loop+sc", "sc-only", "loop-only"],
)
def test_isl_over_bftage_provider_attribution_matches_scalar(factory):
    trace = build_trace("WILD1", QUICK_BRANCHES)
    scalar, vec = _assert_identical(factory, trace, track_providers=True)
    assert vec.provider_hits == scalar.provider_hits
    assert sum(vec.provider_hits.values()) == len(trace)
    assert {"base", "T1", "T4"} <= set(vec.provider_hits)


@pytest.mark.parametrize(
    "factory",
    [lambda: ISLTage(core=BFTage()), BFTage, BFISLTage],
    ids=["isl-over-bftage", "bftage", "bf-isl-tage"],
)
def test_bftage_kernel_covers_paper_geometry(factory):
    assert kernel_for(factory()) is not None
    _assert_identical(factory, build_trace("SPEC00", 600))


@pytest.mark.parametrize(
    "factory",
    [
        lambda: BFTage(_small_bf_config(), bias_oracle=lambda pc: None if pc & 4 else True),
        lambda: BFTage(_small_bf_config(probabilistic_bst=True)),
        lambda: Tage(
            TageConfig(
                num_tables=2,
                history_lengths=[5, 20],
                log2_entries=[10, 10],
                tag_bits=[9, 17],
            )
        ),
        lambda: Tage(
            TageConfig(
                num_tables=2,
                history_lengths=[5, 20],
                log2_entries=[17, 10],
                tag_bits=[9, 9],
            )
        ),
    ],
    ids=["bias-oracle", "probabilistic-bst", "tag-17", "index-17"],
)
def test_tage_kernel_gates(factory):
    predictor = factory()
    assert kernel_for(predictor) is None
    trace = build_trace("SPEC00", 600)
    scalar_p, auto_p = factory(), factory()
    scalar = simulate(scalar_p, trace)
    auto = simulate_batch(auto_p, trace, kernel="auto")
    assert auto.mispredictions == scalar.mispredictions
    assert auto_p.state_hash() == scalar_p.state_hash()


def test_bfneural_wide_fold_falls_back_to_scalar():
    # wm_rows = 2**18 folds history to 18 bits; the kernel's 16-bit
    # fold lanes would truncate it, so auto must take the scalar loop.
    factory = lambda: BFNeural(BFNeuralConfig(wm_rows=1 << 18))  # noqa: E731
    assert factory()._folds.width == 18
    assert kernel_for(factory()) is None
    trace = build_trace("SPEC02", 1_500)
    scalar_p, auto_p = factory(), factory()
    scalar = simulate(scalar_p, trace)
    auto = simulate_batch(auto_p, trace, kernel="auto")
    assert auto.mispredictions == scalar.mispredictions
    assert auto_p.state_hash() == scalar_p.state_hash()


class _Unported(Tage):
    """A Tage subclass: kernels match the exact class, so it has none."""


class TestDispatch:
    def test_kernel_modes_constant(self):
        assert KERNEL_MODES == ("scalar", "vectorized", "auto")

    def test_registry_covers_ported_predictors(self):
        for factory in PORTED.values():
            assert kernel_for(factory()) is not None

    def test_registry_rejects_unported_predictor(self):
        assert kernel_for(_Unported(TageConfig.for_tables(4))) is None

    def test_vectorized_mode_raises_for_unported(self):
        trace = build_trace("SPEC00", 200)
        with pytest.raises(ValueError, match="no vectorized kernel"):
            simulate_batch(
                _Unported(TageConfig.for_tables(4)), trace, kernel="vectorized"
            )

    def test_auto_mode_falls_back_to_scalar(self):
        trace = build_trace("SPEC00", 1_000)
        factory = lambda: _Unported(TageConfig.for_tables(4))  # noqa: E731
        scalar_p, auto_p = factory(), factory()
        scalar = simulate(scalar_p, trace)
        auto = simulate_batch(auto_p, trace, kernel="auto")
        assert auto.mispredictions == scalar.mispredictions
        assert auto_p.state_hash() == scalar_p.state_hash()

    def test_scalar_mode_matches_simulate(self):
        trace = build_trace("SPEC01", 1_000)
        scalar_p, batch_p = Bimodal(), Bimodal()
        scalar = simulate(scalar_p, trace)
        batch = simulate_batch(batch_p, trace, kernel="scalar")
        assert batch.mispredictions == scalar.mispredictions
        assert batch_p.state_hash() == scalar_p.state_hash()

    def test_unknown_kernel_rejected(self):
        trace = build_trace("SPEC00", 100)
        with pytest.raises(ValueError, match="kernel must be one of"):
            simulate_batch(Bimodal(), trace, kernel="simd")


class TestArrayStateSubstrate:
    """tablestate helpers vs the scalar machinery they replace."""

    def test_table_roundtrip(self):
        values = [0, 1, 2, 3, 2, 1]
        array = table_array(values, np.uint8)
        assert array.dtype == np.uint8
        assert table_list(array) == values

    def test_mix64_array_matches_scalar(self):
        rng = np.random.default_rng(7)
        values = rng.integers(0, 2**64, size=256, dtype=np.uint64)
        mixed = mix64_array(values)
        assert [int(v) for v in mixed] == [mix64(int(v)) for v in values]

    def test_packed_history_matches_shift_register(self):
        rng = np.random.default_rng(11)
        outcomes = rng.integers(0, 2, size=300, dtype=np.uint8)
        bits, seed = 13, 0x1A5
        series = packed_history_series(outcomes, bits, seed=seed)
        register, mask_ = seed, (1 << bits) - 1
        for i, taken in enumerate(outcomes):
            assert int(series[i]) == register
            register = ((register << 1) | int(taken)) & mask_
        assert len(series) == len(outcomes)

    def test_signed_history_matches_scalar_evolution(self):
        rng = np.random.default_rng(13)
        outcomes = rng.integers(0, 2, size=200, dtype=np.uint8)
        length = 9
        seed = rng.choice(np.array([-1, 1], dtype=np.int32), size=length)
        matrix = signed_history_matrix(outcomes, length, seed=seed)
        history = [int(v) for v in seed]  # index 0 newest
        for i, taken in enumerate(outcomes):
            assert list(matrix[i]) == history
            history = [2 * int(taken) - 1] + history[:-1]

    @pytest.mark.parametrize("length,width", [(17, 11), (8, 8), (5, 12)])
    def test_folded_history_matches_incremental_fold(self, length, width):
        rng = np.random.default_rng(17)
        bits = rng.integers(0, 2, size=160, dtype=np.uint8)
        fold = FoldedHistory(length, width)
        window = []
        expected = []
        for bit in bits:
            outgoing = window[-length] if len(window) >= length else 0
            fold.update(int(bit), outgoing)
            window.append(int(bit))
            expected.append(fold.value)
        series = folded_history_series(bits, length, width)
        assert [int(v) for v in series] == expected

    @pytest.mark.parametrize("width", [0, 17, 18])
    def test_folded_history_rejects_widths_outside_16_bit_lanes(self, width):
        bits = np.ones(40, dtype=np.uint8)
        with pytest.raises(ValueError, match="fold width"):
            folded_history_series(bits, 100, width)

    def test_folded_history_resume_matches_straight_run(self):
        rng = np.random.default_rng(19)
        bits = rng.integers(0, 2, size=120, dtype=np.uint8)
        length, width, cut = 15, 9, 47
        straight = folded_history_series(bits, length, width)
        head = folded_history_series(bits[:cut], length, width)
        tail = folded_history_series(
            bits[cut:],
            length,
            width,
            seed_value=int(head[-1]),
            prior_tail=bits[max(0, cut - length) : cut],
            prior_count=cut,
        )
        assert [int(v) for v in tail] == [int(v) for v in straight[cut:]]


@settings(max_examples=30, deadline=None)
@given(
    data=st.data(),
    events=st.lists(
        st.tuples(st.integers(0, 2**32 - 1), st.booleans()),
        min_size=1,
        max_size=120,
    ),
)
def test_random_traces_agree_event_by_event(data, events):
    """Kernel predictions match a manual predict/train replay per event,
    and a random prefix cut through the public entry points agrees on
    counters and state."""
    name = data.draw(st.sampled_from(sorted(PORTED)))
    factory = PORTED[name]
    trace = _trace_from(events)
    pcs, outcomes = trace.arrays()

    manual = factory()
    expected = []
    for pc, taken in events:
        expected.append(manual.predict(pc))
        manual.train(pc, bool(taken))

    kerneled = factory()
    preds, _ = kernel_for(kerneled).run(kerneled, pcs, outcomes, 0, len(events))
    assert [bool(p) for p in preds] == expected
    assert kerneled.state_hash() == manual.state_hash()

    cut = data.draw(st.integers(min_value=1, max_value=len(events)))
    scalar_p, vec_p = factory(), factory()
    scalar = simulate(scalar_p, trace, stop_after=cut)
    vec = simulate_batch(vec_p, trace, kernel="vectorized", stop_after=cut)
    assert vec.mispredictions == scalar.mispredictions
    assert vec_p.state_hash() == scalar_p.state_hash()


@pytest.mark.vectorized
@pytest.mark.skipif(
    not os.environ.get("REPRO_FULL_DIFFERENTIAL"),
    reason="full 44-trace sweep; set REPRO_FULL_DIFFERENTIAL=1 "
    "(run_all_experiments.sh does)",
)
@pytest.mark.parametrize("name", sorted(PORTED))
def test_full_suite_differential(name):
    """ISSUE acceptance: bit-identity on all 40 suite + 4 wild traces."""
    for trace_name in tuple(SUITE_NAMES) + tuple(WILD_NAMES):
        trace = build_trace(trace_name, 12_000)
        _assert_identical(PORTED[name], trace)
