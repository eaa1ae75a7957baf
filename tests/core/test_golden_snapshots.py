"""Snapshots written by an earlier release restore and continue bitwise.

The fixtures under ``tests/fixtures/snapshots/`` were written once, by a
checkout of the release whose PMW-CM kept its memo in four tables (data
minima, round cache, hypothesis minima, warm starts) and whose PMW-linear
kept a prewarmed true-answer cache. There, a short script built the
dataset and losses stored in each fixture, ran a seeded stream, took a
mid-stream ``snapshot()`` through JSON, then kept running the *same*
mechanism — never a restored one — and recorded its answers, history,
privacy totals and final log-weights as ``expected``. The CM snapshot
carries round-cache, warm-start and data-minima entries, and hypothesis
minima released just before it.

Each test restores a fixture on the current code and replays the
recorded continuation: every released value must match the old,
uninterrupted run to the last bit. There is deliberately no tool to
regenerate the fixtures: regenerating them on new code would bless
whatever it does.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.pmw_cm import PrivateMWConvex
from repro.core.pmw_linear import PrivateMWLinear
from repro.data.dataset import Dataset
from repro.data.universe import Universe
from repro.erm.oracle import NonPrivateOracle
from repro.losses.hinge import HingeLoss
from repro.losses.linear import LinearQuery
from repro.losses.logistic import LogisticLoss
from repro.optimize.projections import L2Ball

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures" / "snapshots"
LOSS_TYPES = {"LogisticLoss": LogisticLoss, "HingeLoss": HingeLoss}


def load(name):
    with open(FIXTURES / name, encoding="utf-8") as handle:
        return json.load(handle)


def dataset_of(fixture):
    stored = fixture["dataset"]
    universe = Universe(np.asarray(stored["points"], dtype=float),
                        labels=np.asarray(stored["labels"], dtype=float))
    return Dataset(universe, np.asarray(stored["indices"]))


@pytest.fixture(scope="module")
def cm_fixture():
    return load("pmw_cm_parent.json")


@pytest.fixture(scope="module")
def linear_fixture():
    return load("pmw_linear_parent.json")


def test_cm_restore_continues_like_the_uninterrupted_run(cm_fixture):
    snapshot = cm_fixture["snapshot"]
    assert snapshot["round_cache"] and snapshot["data_minima"]
    replayable = {record["fingerprint"]
                  for record in snapshot["round_cache"]}
    version = snapshot["hypothesis_core"]["version"]
    # Minima released at the snapshot's version outside any round: a
    # reader that drops these solves them again after a restore.
    assert any(entry["version"] == version and key not in replayable
               for key, entry in snapshot["warm_starts"].items())
    dataset = dataset_of(cm_fixture)
    domain = L2Ball(dataset.universe.dim)
    losses = [LOSS_TYPES[spec["kind"]](
                  domain, rotation=np.asarray(spec["rotation"], dtype=float),
                  name=spec["name"])
              for spec in cm_fixture["losses"]]
    mechanism = PrivateMWConvex.restore(
        snapshot, dataset, NonPrivateOracle(cm_fixture["oracle_steps"]))
    answers = []
    for kind, which in cm_fixture["continuation"]:
        if kind == "hypothesis":
            answers.append(mechanism.answer_from_hypothesis(losses[which]))
        else:
            answers.extend(mechanism.answer_all(
                [losses[index] for index in which], on_halt="hypothesis"))
    expected = cm_fixture["expected"]
    assert len(answers) == len(expected["answers"])
    for got, want in zip(answers, expected["answers"]):
        assert got.theta.tolist() == want["theta"]
        assert (got.from_update, got.query_index, got.update_index) == \
            (want["from_update"], want["query_index"], want["update_index"])
    assert mechanism.history == expected["history"]
    totals = mechanism.accountant.total_basic()
    assert (totals.epsilon, totals.delta) == \
        (expected["epsilon_spent"], expected["delta_spent"])
    assert mechanism.snapshot()["hypothesis_core"]["log_weights"] == \
        expected["log_weights"]


def test_linear_restore_continues_like_the_uninterrupted_run(linear_fixture):
    dataset = dataset_of(linear_fixture)
    queries = [LinearQuery(np.asarray(spec["table"], dtype=float),
                           name=spec["name"])
               for spec in linear_fixture["queries"]]
    mechanism = PrivateMWLinear.restore(linear_fixture["snapshot"], dataset)
    expected = linear_fixture["expected"]
    for index, want in zip(linear_fixture["continuation"],
                           expected["answers"]):
        got = mechanism.answer(queries[index])
        assert (got.value, got.from_update, got.query_index,
                got.update_index) == \
            (want["value"], want["from_update"], want["query_index"],
             want["update_index"])
    totals = mechanism.accountant.total_basic()
    assert (totals.epsilon, totals.delta) == \
        (expected["epsilon_spent"], expected["delta_spent"])
    assert mechanism.snapshot()["hypothesis_core"]["log_weights"] == \
        expected["log_weights"]
