"""repro — reproduction of "Private Multiplicative Weights Beyond Linear
Queries" (Jonathan Ullman, PODS 2015).

The library implements the paper's mechanism — online private
multiplicative weights for convex-minimization (CM) queries — together
with every substrate it depends on: finite-universe data handling, basic DP
mechanisms and composition, the online sparse-vector algorithm, a convex
loss library, single-query DP-ERM oracles, and the linear-query baselines
it extends (PMW, MWEM).

Quickstart::

    from repro import (
        PrivateMWConvex, NoisyGradientDescentOracle,
        make_classification_dataset, random_logistic_family,
    )

    task = make_classification_dataset(n=50_000, d=4, rng=0)
    losses = random_logistic_family(task.universe, k=100, rng=1)
    oracle = NoisyGradientDescentOracle(epsilon=1.0, delta=1e-6)
    mechanism = PrivateMWConvex(
        task.dataset, oracle, scale=2.0, alpha=0.2,
        epsilon=1.0, delta=1e-6, rng=2,
    )
    answers = mechanism.answer_all(losses)

Or through the serving layer (sessions, budget ledger, answer cache)::

    from repro import PMWService

    service = PMWService(task.dataset, ledger_path="budget.jsonl")
    sid = service.open_session("pmw-convex", scale=2.0, alpha=0.2,
                               epsilon=1.0, delta=1e-6)
    results = service.answer_batch((sid, losses))

See README.md for the subsystem map and installation; the benchmark suite
under ``benchmarks/`` regenerates the paper-vs-measured record.
"""

from repro.core import (
    MWEM,
    CompositionBaseline,
    OfflineMWConvex,
    PMWConfig,
    PrivateMWConvex,
    PrivateMWLinear,
    answer_error,
    database_error,
    dual_certificate,
    theory,
)
from repro.data import (
    Dataset,
    Histogram,
    LogHistogram,
    Universe,
    binary_cube,
    labeled_universe,
    make_classification_dataset,
    make_regression_dataset,
    random_ball_net,
    signed_cube,
)
from repro.dp import (
    PrivacyAccountant,
    SparseVector,
    advanced_composition,
    basic_composition,
    exponential_mechanism,
    gaussian_mechanism,
    laplace_mechanism,
)
from repro.erm import (
    ExponentialMechanismOracle,
    GLMProjectionOracle,
    NoisyGradientDescentOracle,
    NonPrivateOracle,
    ObjectivePerturbationOracle,
    OutputPerturbationOracle,
)
from repro.losses import (
    HingeLoss,
    HuberLoss,
    LinearQuery,
    LinearQueryAsCM,
    LogisticLoss,
    LossFunction,
    QuadraticLoss,
    RidgeRegularized,
    SquaredLoss,
    family_scale_bound,
    random_halfspace_queries,
    random_linear_queries,
    random_logistic_family,
    random_quadratic_family,
    random_ridge_family,
    random_squared_family,
)
from repro.engine import (
    batch_answers,
    batch_data_minima,
    batch_loss_on,
    compile_batch,
)
from repro.optimize import L2Ball, minimize_loss
from repro.serve import (
    AnswerCache,
    BudgetLedger,
    Checkpointer,
    GatewayMetrics,
    MechanismRegistry,
    PMWService,
    ServeResult,
    ServiceGateway,
    Session,
    default_registry,
)

__version__ = "1.2.0"

__all__ = [
    # core
    "PrivateMWConvex", "OfflineMWConvex", "PrivateMWLinear", "MWEM",
    "CompositionBaseline",
    "PMWConfig", "answer_error", "database_error", "dual_certificate",
    "theory",
    # data
    "Universe", "Histogram", "LogHistogram", "Dataset",
    "binary_cube",
    "signed_cube",
    "random_ball_net", "labeled_universe", "make_regression_dataset",
    "make_classification_dataset",
    # dp
    "SparseVector", "PrivacyAccountant", "laplace_mechanism",
    "gaussian_mechanism", "exponential_mechanism", "basic_composition",
    "advanced_composition",
    # erm
    "NonPrivateOracle", "NoisyGradientDescentOracle",
    "OutputPerturbationOracle", "ObjectivePerturbationOracle",
    "GLMProjectionOracle", "ExponentialMechanismOracle",
    # losses
    "LossFunction", "LinearQuery", "LinearQueryAsCM", "SquaredLoss",
    "LogisticLoss", "HingeLoss", "HuberLoss", "QuadraticLoss",
    "RidgeRegularized", "family_scale_bound", "random_linear_queries",
    "random_halfspace_queries", "random_logistic_family",
    "random_squared_family", "random_quadratic_family",
    "random_ridge_family",
    # engine
    "compile_batch", "batch_answers", "batch_loss_on", "batch_data_minima",
    # optimize
    "L2Ball", "minimize_loss",
    # serve
    "PMWService", "ServiceGateway", "GatewayMetrics", "Session",
    "ServeResult", "MechanismRegistry", "default_registry", "BudgetLedger",
    "AnswerCache", "Checkpointer",
]
