"""E24 — pluggable numeric backend on the MW hot path.

The backend refactor (``repro.backend``) moved every heavy kernel of the
mechanism loop — in-place log-weight accumulation, deferred
normalization, linear-answer matvecs, GLM margin matmuls, cached-CDF
sampling — behind the :class:`~repro.backend.base.ArrayBackend`
protocol, with the NumPy float64 default extracted bitwise and the
SIMD-friendly float32 NumPy backend registered beside it. This
benchmark measures the claim the protocol exists for:
the accelerated backend runs the same hot path materially faster while
staying inside the documented 1e-6 agreement band.

1. **cm_hot_loop** — the raw mechanism inner loop at large ``|X|``
   (full mode: 10^6): in-place MW accumulation, the deferred
   normalization (materialize), and a probe ``dot`` per round,
   accelerated backend vs the dense NumPy default.
2. **glm_margin** — the batched GLM margin matmul
   (``kernels.glm_margin_matrix``), the engine's flop-heavy kernel.
3. **sampling** — cached-CDF inverse sampling (``build_cdf`` once, then
   repeated ``sample_indices`` batches).

The float32 backend is bandwidth-bound on the hot loop, so full mode
holds it to the modest ``FLOAT32_BAR`` there; every mode asserts the
1e-6 agreement contract. Smoke mode (CI) runs small, asserts agreement plus
a catastrophic-regression floor, and archives
``BENCH_backend.smoke.json`` whose ``gated_speedups`` feed the nightly
regression gate (``tools/check_bench_regression.py``).
"""

import json
import os
import pathlib
import sys
import tempfile
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

import pytest

from repro.backend import available_backends, get_backend
from repro.data.builders import interval_grid
from repro.data.log_histogram import LogHistogram
from repro.engine import kernels
from repro.experiments.report import ExperimentReport

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
JSON_NAME = "BENCH_backend.json"

#: Agreement band every non-default backend must stay inside.
TOLERANCE = 1e-6

#: Full-mode hot-loop bar for the bandwidth-bound float32 backend.
#: Smoke mode only guards against catastrophic regression (the nightly
#: JSON diff tracks the real trajectory).
FLOAT32_BAR = 1.05
SMOKE_BAR = 0.5

FULL_SIZES = dict(universe_size=1_000_000, rounds=24, glm_batch=96,
                  glm_dim=16, sample_batches=32)
SMOKE_SIZES = dict(universe_size=100_000, rounds=12, glm_batch=32,
                   glm_dim=8, sample_batches=8)


#: The accelerated backend under test, against the NumPy default.
ACCELERATED = "float32"


def _best_of(repeats, fn):
    best, value = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def cm_hot_loop(universe_size, *, rounds=24, timing_repeats=3):
    """Section 1: update + deferred normalize + probe dot, per backend."""
    rng = np.random.default_rng(10)
    universe = interval_grid(universe_size)
    directions = rng.uniform(-1.0, 1.0, (rounds, universe_size))
    probe = rng.random(universe_size)

    def run(backend_name):
        core = LogHistogram(universe, backend=backend_name)
        total = 0.0
        for direction in directions:
            core.apply_update(direction, 0.05)
            total += core.dot(probe)
        return np.asarray(core.weights, dtype=float), total

    name = ACCELERATED
    run(name)  # warm-up: first-touch allocation must not ride the timing
    numpy_seconds, (numpy_weights, _) = _best_of(
        timing_repeats, lambda: run("numpy"))
    accel_seconds, (accel_weights, _) = _best_of(
        timing_repeats, lambda: run(name))
    return {
        "universe": universe_size, "rounds": rounds, "accelerated": name,
        "numpy_seconds": numpy_seconds, "accelerated_seconds": accel_seconds,
        "speedup": numpy_seconds / accel_seconds,
        "max_divergence": float(np.max(np.abs(accel_weights
                                              - numpy_weights))),
    }


def glm_margin(universe_size, *, batch=96, dim=16, timing_repeats=5):
    """Section 2: the ``|X|×d @ d×B`` margin matmul per backend."""
    rng = np.random.default_rng(11)
    points = rng.standard_normal((universe_size, dim))
    parameters = rng.standard_normal((dim, batch))

    name = ACCELERATED
    backend = get_backend(name)
    points_native = backend.from_float64(points)
    parameters_native = backend.from_float64(parameters)
    backend.matmul(points_native, parameters_native)  # warm-up

    numpy_seconds, numpy_margins = _best_of(
        timing_repeats,
        lambda: kernels.glm_margin_matrix(points, parameters))
    accel_seconds, accel_margins = _best_of(
        timing_repeats,
        lambda: backend.matmul(points_native, parameters_native))
    return {
        "universe": universe_size, "batch": batch, "dim": dim,
        "accelerated": name,
        "numpy_seconds": numpy_seconds, "accelerated_seconds": accel_seconds,
        "speedup": numpy_seconds / accel_seconds,
        # Margins are pre-link inner products of O(d) standard normals;
        # normalize the deviation to the float32 scale of the values.
        "max_divergence": float(np.max(np.abs(
            np.asarray(accel_margins, dtype=float) - numpy_margins))
            / max(1.0, float(np.max(np.abs(numpy_margins))))),
    }


def sampling(universe_size, *, batches=32, draw=4096, timing_repeats=3):
    """Section 3: cached-CDF inverse sampling per backend."""
    rng = np.random.default_rng(12)
    universe = interval_grid(universe_size)
    direction = rng.uniform(-1.0, 1.0, universe_size)

    def run(backend_name):
        core = LogHistogram(universe, backend=backend_name)
        core.apply_update(direction, 0.5)
        frozen = core.freeze()
        out = []
        for index in range(batches):
            out.append(frozen.sample_indices(
                draw, rng=np.random.default_rng(100 + index)))
        return np.concatenate(out)

    name = ACCELERATED
    run(name)  # warm-up
    numpy_seconds, numpy_samples = _best_of(
        timing_repeats, lambda: run("numpy"))
    accel_seconds, accel_samples = _best_of(
        timing_repeats, lambda: run(name))
    return {
        "universe": universe_size, "batches": batches, "draw": draw,
        "accelerated": name,
        "numpy_seconds": numpy_seconds, "accelerated_seconds": accel_seconds,
        "speedup": numpy_seconds / accel_seconds,
        "sample_agreement": float(np.mean(numpy_samples == accel_samples)),
    }


# -- assembly -----------------------------------------------------------------


def build_results(*, smoke=False):
    sizes = SMOKE_SIZES if smoke else FULL_SIZES
    cm = cm_hot_loop(sizes["universe_size"], rounds=sizes["rounds"])
    glm = glm_margin(sizes["universe_size"], batch=sizes["glm_batch"],
                     dim=sizes["glm_dim"])
    samp = sampling(sizes["universe_size"],
                    batches=sizes["sample_batches"])
    return {
        "benchmark": "backend",
        "mode": "smoke" if smoke else "full",
        "accelerated": ACCELERATED,
        "backends": available_backends(),
        "bar": SMOKE_BAR if smoke else FLOAT32_BAR,
        "cm_hot_loop": cm,
        "glm_margin": glm,
        "sampling": samp,
    }


def build_report(results):
    report = ExperimentReport("E24 pluggable numeric backend")
    report.add(f"backends registered: {results['backends']}; "
               f"accelerated under test: {results['accelerated']!r} "
               f"(hot-loop bar {results['bar']}x, agreement <= "
               f"{TOLERANCE:g})")
    cm = results["cm_hot_loop"]
    report.add_table(
        ["|X|", "rounds", "numpy s", "accel s", "speedup", "max |dw|"],
        [[cm["universe"], cm["rounds"], cm["numpy_seconds"],
          cm["accelerated_seconds"], cm["speedup"], cm["max_divergence"]]],
        title="MW hot loop: in-place accumulate + deferred normalize + "
              "probe dot",
    )
    glm = results["glm_margin"]
    report.add_table(
        ["|X|", "batch", "d", "numpy s", "accel s", "speedup",
         "rel |dM|"],
        [[glm["universe"], glm["batch"], glm["dim"], glm["numpy_seconds"],
          glm["accelerated_seconds"], glm["speedup"],
          glm["max_divergence"]]],
        title="GLM margin matmul (kernels.glm_margin_matrix)",
    )
    samp = results["sampling"]
    report.add_table(
        ["|X|", "batches", "draw", "numpy s", "accel s", "speedup",
         "agree"],
        [[samp["universe"], samp["batches"], samp["draw"],
          samp["numpy_seconds"], samp["accelerated_seconds"],
          samp["speedup"], f"{samp['sample_agreement']:.1%}"]],
        title="cached-CDF inverse sampling (build once, draw repeatedly)",
    )
    return report


def write_json(results, path=None, json_dir=None):
    """Archive machine-readable results (see bench_hot_loop.write_json)."""
    RESULTS_DIR.mkdir(exist_ok=True)
    if path is None:
        name = JSON_NAME if results["mode"] == "full" \
            else JSON_NAME.replace(".json", ".smoke.json")
        if json_dir is not None:
            directory = pathlib.Path(json_dir)
        elif results["mode"] == "full":
            directory = RESULTS_DIR
        else:
            directory = pathlib.Path(tempfile.gettempdir()) \
                / "repro-bench-smoke"
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / name
    payload = dict(results)
    payload["speedups"] = {
        section: results[section]["speedup"]
        for section in ("cm_hot_loop", "glm_margin", "sampling")
    }
    # Only the flop-heavy margin matmul feeds the nightly regression
    # gate: with the float32 fallback the hot loop and sampling sit near
    # bandwidth parity (1.0-1.5x) and a -20% floor there would flake on
    # scheduler noise. The sgemm advantage itself swings 3x-5x with BLAS
    # scheduling, so the gated value is capped: losing the advantage
    # entirely (~1x) still trips the floor, a lucky 5x baseline cannot.
    payload["gated_speedups"] = {
        "glm_margin": min(results["glm_margin"]["speedup"], 3.0),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    return path


def check_bars(results):
    """The assertions both pytest and the CI smoke job enforce."""
    cm = results["cm_hot_loop"]
    assert cm["max_divergence"] <= TOLERANCE, (
        f"accelerated backend {cm['accelerated']!r} left the agreement "
        f"band: max |dw| = {cm['max_divergence']:.3g} > {TOLERANCE:g}"
    )
    assert results["glm_margin"]["max_divergence"] <= TOLERANCE
    # float32 weight rounding shifts each CDF boundary by ~1e-7, so a
    # draw landing inside a shifted sliver picks the neighboring index.
    # Expected flip fraction is sum_i |dCDF_i| — it grows with |X|
    # (~0.1% at 1e5 bins, ~1% at 1e6) and is an index-label effect, not
    # a distributional one; the bar guards against gross divergence.
    assert results["sampling"]["sample_agreement"] >= 0.98, (
        f"inverse-CDF sampling diverged: "
        f"{results['sampling']['sample_agreement']:.4%} agreement"
    )
    bar = results["bar"]
    assert cm["speedup"] >= bar, (
        f"hot-loop speedup {cm['speedup']:.2f}x below the {bar}x bar for "
        f"accelerated backend {cm['accelerated']!r} at "
        f"|X|={cm['universe']}"
    )


# -- pytest entry points ------------------------------------------------------


@pytest.fixture(scope="module")
def results():
    return build_results()


def test_e24_report(results, save_report):
    text = save_report(build_report(results))
    assert "pluggable numeric backend" in text


def test_e24_bars(results):
    check_bars(results)


def test_e24_json_artifact(results):
    path = write_json(results)
    payload = json.loads(pathlib.Path(path).read_text())
    assert payload["mode"] == "full"
    assert "glm_margin" in payload["gated_speedups"]


# -- standalone / CI ----------------------------------------------------------


if __name__ == "__main__":
    smoke = "--smoke" in sys.argv
    json_dir = None
    if "--json-dir" in sys.argv:
        position = sys.argv.index("--json-dir") + 1
        if position >= len(sys.argv):
            raise SystemExit("--json-dir requires a directory argument")
        json_dir = sys.argv[position]
    outcome = build_results(smoke=smoke)
    print(build_report(outcome).render())
    json_path = write_json(outcome, json_dir=json_dir)
    print(f"machine-readable results -> {json_path}")
    if not smoke:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / "e24.txt").write_text(build_report(outcome).render())
    check_bars(outcome)
    print(f"OK: hot-loop speedup {outcome['cm_hot_loop']['speedup']:.2f}x "
          f">= {outcome['bar']}x with backend "
          f"{outcome['accelerated']!r} ({outcome['mode']} mode)")
