"""Property tests pinning the lazy log-domain path to the immutable path.

The versioned :class:`~repro.data.log_histogram.LogHistogram` accumulates
``eta * u`` increments in place with deferred normalization; the immutable
:class:`~repro.data.histogram.Histogram` normalizes on every update. The
two must agree — on weights, on query answers, and on the KL potential of
the MW analysis — to ``1e-10`` across randomized update sequences, with
snapshot/restore splicing allowed anywhere in the sequence.
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.data.histogram import Histogram
from repro.data.log_histogram import LogHistogram
from repro.data.universe import Universe

SIZE = 24
UNIVERSE = Universe(np.arange(SIZE, dtype=float)[:, None], name="line24")
DATA = Histogram(UNIVERSE, np.linspace(1.0, 3.0, SIZE))

update_sequences = st.lists(
    st.tuples(
        hnp.arrays(dtype=float, shape=SIZE,
                   elements=st.floats(min_value=-1.0, max_value=1.0)),
        st.floats(min_value=1e-4, max_value=2.0),
    ),
    min_size=1, max_size=12,
)

weight_arrays = hnp.arrays(
    dtype=float, shape=SIZE,
    # Subnormal weights (< ~2.2e-308) are excluded: they carry no
    # meaningful probability mass (no count/n histogram produces them),
    # and log-of-subnormal loses enough precision that the two
    # representations legitimately diverge past 1e-10 on the KL
    # potential while still agreeing on every answer.
    elements=st.floats(min_value=0.0, max_value=50.0,
                       allow_subnormal=False),
).filter(lambda w: w.sum() > 1e-6)


def run_both(weights, updates, *, snapshot_at=None):
    immutable = Histogram(UNIVERSE, weights)
    core = LogHistogram(UNIVERSE, weights)
    for index, (direction, eta) in enumerate(updates):
        if snapshot_at is not None and index == snapshot_at:
            state = json.loads(json.dumps(core.state_dict()))
            core = LogHistogram.from_state(UNIVERSE, state)
        immutable = immutable.multiplicative_update(direction, eta)
        core.apply_update(direction, eta)
    return immutable, core


class TestLogDomainAgreement:
    @given(weights=weight_arrays, updates=update_sequences)
    @settings(max_examples=60, deadline=None)
    def test_weights_within_1e10(self, weights, updates):
        immutable, core = run_both(weights, updates)
        assert np.max(np.abs(core.weights - immutable.weights)) <= 1e-10

    @given(weights=weight_arrays, updates=update_sequences)
    @settings(max_examples=40, deadline=None)
    def test_answers_within_1e10(self, weights, updates):
        immutable, core = run_both(weights, updates)
        probe = np.linspace(0.0, 1.0, SIZE)
        assert abs(core.dot(probe) - immutable.dot(probe)) <= 1e-10
        frozen = core.freeze()
        assert abs(frozen.dot(probe) - immutable.dot(probe)) <= 1e-10

    @given(weights=weight_arrays, updates=update_sequences)
    @settings(max_examples=40, deadline=None)
    def test_kl_potential_within_1e10(self, weights, updates):
        """The MW potential KL(D || Dhat) — the analysis' Lyapunov
        function — agrees between the two representations."""
        immutable, core = run_both(weights, updates)
        lazy_potential = DATA.kl_divergence(core.freeze())
        eager_potential = DATA.kl_divergence(immutable)
        if np.isinf(eager_potential):
            assert np.isinf(lazy_potential)
        else:
            # Relative 1e-10: KL is unbounded (denormal weights push it
            # into the hundreds), unlike the [0, 1]-bounded weights and
            # answers where the absolute bound applies.
            assert abs(lazy_potential - eager_potential) <= \
                1e-10 * max(1.0, abs(eager_potential))

    @given(weights=weight_arrays, updates=update_sequences,
           data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_agreement_survives_snapshot_restore(self, weights, updates,
                                                 data):
        """Restoring mid-sequence must not open a gap to the immutable
        path — the raw log-domain state round-trips exactly."""
        cut = data.draw(st.integers(min_value=0, max_value=len(updates)))
        immutable, core = run_both(weights, updates, snapshot_at=cut)
        assert core.version == len(updates)
        assert np.max(np.abs(core.weights - immutable.weights)) <= 1e-10


class TestMechanismLevelAgreement:
    def test_linear_mechanism_versions_agree(self):
        """Same seed, versioned vs legacy PMW-linear: identical noise
        stream, near-identical released answers (the two hypothesis
        representations differ only by deferred-normalization float
        error)."""
        from repro.core.pmw_linear import PrivateMWLinear
        from repro.data.dataset import Dataset
        from repro.losses.linear import LinearQuery

        rng = np.random.default_rng(5)
        dataset = Dataset(UNIVERSE,
                          rng.choice(SIZE, size=400,
                                     p=DATA.weights))
        queries = [
            LinearQuery(np.clip(rng.random(SIZE), 0.0, 1.0),
                        name=f"q{i}")
            for i in range(20)
        ]

        def run(versioned):
            mechanism = PrivateMWLinear(dataset, alpha=0.2, epsilon=2.0,
                                        max_updates=8,
                                        versioned_core=versioned, rng=9)
            return mechanism.answer_all(queries, on_halt="hypothesis")

        lazy, eager = run(True), run(False)
        assert [a.from_update for a in lazy] == \
            [a.from_update for a in eager]
        for a, b in zip(lazy, eager):
            assert abs(a.value - b.value) <= 1e-9
