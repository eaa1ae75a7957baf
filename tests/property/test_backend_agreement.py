"""Property tests pinning every registered backend to the NumPy default.

The :mod:`repro.backend` contract says accelerated backends may change
*arithmetic* (dtype, reduction precision) but never *math*: on any
MW workload their results must stay within ``1e-6`` of the
:class:`~repro.backend.NumpyBackend` reference. This suite lets
Hypothesis hunt for update sequences and query shapes that stress the
band, for every backend registered on this machine:

- **MW steps** — in-place accumulate + deferred normalize over random
  update sequences: materialized weights within ``1e-6``;
- **linear answers / GLM margins / moments** — the engine kernels
  (:func:`~repro.engine.kernels.linear_answers` and friends) through a
  backend-carrying histogram vs the dense NumPy path;
- **inverse-CDF sampling** — fixed seeds, same draws (a boundary flip
  on a tiny universe would mean real CDF divergence, not rounding);
- **monotone objective** — the MW potential ``KL(data ‖ hypothesis)``
  is non-increasing under certificate-signed updates on every backend
  (the analysis' Lemma 3.4 invariant must not be a float64 accident).

Every CI job sees ``['float32', 'numpy']``, plus any out-of-tree
backend registered on the host. The numpy-vs-numpy case is
intentionally kept in the matrix: it pins the refactor itself
(agreement there is exact).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.backend import available_backends, get_backend
from repro.data.histogram import Histogram
from repro.data.log_histogram import LogHistogram
from repro.data.universe import Universe
from repro.engine import kernels

TOLERANCE = 1e-6
SIZE = 32
UNIVERSE = Universe(np.arange(SIZE, dtype=float)[:, None], name="line32")

BACKENDS = available_backends()

update_sequences = st.lists(
    st.tuples(
        hnp.arrays(dtype=float, shape=SIZE,
                   elements=st.floats(min_value=-1.0, max_value=1.0)),
        st.floats(min_value=1e-4, max_value=1.0),
    ),
    min_size=1, max_size=10,
)

tables_arrays = hnp.arrays(
    dtype=float, shape=(6, SIZE),
    elements=st.floats(min_value=0.0, max_value=1.0),
)

weight_arrays = hnp.arrays(
    dtype=float, shape=SIZE,
    elements=st.floats(min_value=1e-6, max_value=50.0,
                       allow_subnormal=False),
)


def materialized(backend_name, updates):
    core = LogHistogram(UNIVERSE, backend=backend_name)
    for direction, eta in updates:
        core.apply_update(direction, eta)
    return np.asarray(core.weights, dtype=float)


@pytest.mark.parametrize("name", BACKENDS)
class TestHotPathAgreement:
    @given(updates=update_sequences)
    @settings(max_examples=40, deadline=None)
    def test_mw_steps_agree(self, name, updates):
        reference = materialized("numpy", updates)
        candidate = materialized(name, updates)
        assert np.max(np.abs(candidate - reference)) <= TOLERANCE

    @given(updates=update_sequences, tables=tables_arrays)
    @settings(max_examples=30, deadline=None)
    def test_linear_answers_agree(self, name, updates, tables):
        def answers(backend_name):
            core = LogHistogram(UNIVERSE, backend=backend_name)
            for direction, eta in updates:
                core.apply_update(direction, eta)
            return np.asarray(
                kernels.linear_answers(tables, core.freeze()),
                dtype=float)

        np.testing.assert_allclose(answers(name), answers("numpy"),
                                   atol=TOLERANCE, rtol=0)

    @given(weights=weight_arrays)
    @settings(max_examples=30, deadline=None)
    def test_moments_agree(self, name, weights):
        rng = np.random.default_rng(5)
        features = rng.standard_normal((SIZE, 3))
        labels = rng.standard_normal(SIZE)

        def moments(backend_name):
            histogram = Histogram(UNIVERSE, weights,
                                  backend=backend_name)
            return (np.asarray(kernels.second_moment(features, histogram),
                               dtype=float),
                    np.asarray(kernels.cross_moment(features, labels,
                                                    histogram),
                               dtype=float))

        second, cross = moments(name)
        second_ref, cross_ref = moments("numpy")
        np.testing.assert_allclose(second, second_ref, atol=TOLERANCE,
                                   rtol=0)
        np.testing.assert_allclose(cross, cross_ref, atol=TOLERANCE,
                                   rtol=0)

    def test_glm_margins_agree(self, name):
        rng = np.random.default_rng(6)
        points = rng.standard_normal((SIZE, 4))
        parameters = rng.standard_normal((4, 8))
        reference = kernels.glm_margin_matrix(points, parameters)
        candidate = np.asarray(
            kernels.glm_margin_matrix(points, parameters,
                                      backend=get_backend(name)),
            dtype=float)
        np.testing.assert_allclose(candidate, reference, atol=TOLERANCE,
                                   rtol=0)

    def test_sampling_agrees_under_fixed_seeds(self, name):
        updates = [(np.linspace(-1, 1, SIZE), 0.4),
                   (np.cos(np.arange(SIZE)), 0.2)]

        def draws(backend_name):
            core = LogHistogram(UNIVERSE, backend=backend_name)
            for direction, eta in updates:
                core.apply_update(direction, eta)
            return core.freeze().sample_indices(
                512, rng=np.random.default_rng(99))

        # 32 bins put every CDF boundary ~0.03 apart — a flipped index
        # here would be genuine divergence, not boundary rounding.
        np.testing.assert_array_equal(draws(name), draws("numpy"))


@pytest.mark.parametrize("name", BACKENDS)
def test_mw_objective_monotone(name):
    """``KL(data ‖ hypothesis)`` never increases under signed updates.

    The potential argument behind the MW regret bound (Lemma 3.4) is
    what makes PMW's update count finite; it must hold on every
    backend's arithmetic, not just float64. Updates follow the
    mechanism's sign convention: penalize where the hypothesis
    over-answers relative to the data.
    """
    rng = np.random.default_rng(7)
    # Concentrated data vs a uniform start manufactures the >= 3*eta
    # answer gaps PMW's sparse vector would fire on; the regret
    # inequality (eta*gap - eta^2 > 0) then guarantees strict descent.
    data_weights = np.full(SIZE, 0.1)
    data_weights[0] = 20.0
    data = Histogram(UNIVERSE, data_weights)
    tables = rng.random((30, SIZE))

    eta = 0.05
    core = LogHistogram(UNIVERSE, backend=name)
    potential = data.kl_divergence(core.freeze())
    fired = 0
    for table in tables:
        gap = float(core.freeze().dot(table)) - float(data.dot(table))
        if abs(gap) < 3 * eta:
            continue  # the mechanism would not update on this query
        core.apply_update(-np.sign(gap) * table, eta)
        fired += 1
        next_potential = data.kl_divergence(core.freeze())
        # Tiny slack: float32 materialization can wobble the potential
        # by a few ulps without breaking monotonicity.
        assert next_potential <= potential + 1e-6
        potential = next_potential
    assert fired >= 3  # the check must not pass vacuously
