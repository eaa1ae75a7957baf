"""The dual-certificate multiplicative-weights update (Claim 3.5).

This is the paper's key novelty. When the hypothesis ``Dhat`` answers a CM
query badly, that fact is *non-linear* in the histogram, so it cannot drive
a MW update directly. The paper extracts a linear certificate from
first-order optimality: with ``theta_hat = argmin l_Dhat`` and ``theta`` a
(privately obtained) good minimizer for the true data, the vector

    ``u(x) = <theta - theta_hat, grad l_x(theta_hat)>``

satisfies (Claim 3.5)

    ``<u, Dhat - D> >= l_D(theta_hat) - l_D(theta)``,

i.e. ``u`` is a linear query on which ``Dhat`` errs at least as much as the
excess risk it incurred — exactly the kind of vector the MW regret bound
(Lemma 3.4) needs.

**Update sign.** Figure 3 prints ``Dhat_{t+1} ∝ exp(+eta u) Dhat_t``, but
the accuracy analysis (Claims 3.6/3.7 with Lemma 3.4's regret bound)
requires the update that *decreases* weight where ``u`` is large — the
standard MW learner ``Dhat_{t+1} ∝ exp(-eta u / S) Dhat_t`` (normalizing
``u ∈ [-S, S]`` to ``[-1, 1]``), whose regret against the comparator ``D``
is ``(1/T) sum <u_t, Dhat_t - D> <= 2 S sqrt(log|X| / T)`` exactly as
Lemma 3.4 states. We implement the regret-consistent sign; the E12
ablation benchmark demonstrates the printed sign diverges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.histogram import Histogram
from repro.data.log_histogram import LogHistogram
from repro.exceptions import ValidationError
from repro.losses.base import LossFunction
from repro.optimize.minimize import minimize_loss
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class UpdateCertificate:
    """The dual certificate for one PMW update round.

    Attributes
    ----------
    direction:
        The vector ``u ∈ [-S, S]^X`` of Claim 3.5.
    theta_hat:
        The hypothesis minimizer ``argmin_theta l(theta; Dhat)``.
    theta_oracle:
        The private approximate data minimizer supplied by ``A'``.
    hypothesis_inner:
        ``<u, Dhat>`` — non-negative by first-order optimality (eq. 3).
    """

    direction: np.ndarray
    theta_hat: np.ndarray
    theta_oracle: np.ndarray
    hypothesis_inner: float


def dual_certificate(loss: LossFunction, hypothesis: Histogram,
                     theta_oracle: np.ndarray,
                     theta_hat: np.ndarray | None = None,
                     *, solver_steps: int = 400) -> UpdateCertificate:
    """Compute ``u(x) = <theta_oracle - theta_hat, grad l_x(theta_hat)>``.

    ``theta_hat`` may be supplied when the caller already minimized the
    loss on the hypothesis (the PMW round does, when computing the error
    query); otherwise it is computed here.

    Only *public* quantities (the hypothesis histogram) and the already
    privatized ``theta_oracle`` enter, so the certificate is
    privacy-free post-processing.
    """
    theta_oracle = np.asarray(theta_oracle, dtype=float)
    if theta_hat is None:
        theta_hat = minimize_loss(loss, hypothesis, steps=solver_steps).theta
    theta_hat = np.asarray(theta_hat, dtype=float)
    gradients = loss.gradients(theta_hat, hypothesis.universe)
    direction = gradients @ (theta_oracle - theta_hat)
    return UpdateCertificate(
        direction=direction,
        theta_hat=theta_hat,
        theta_oracle=theta_oracle,
        hypothesis_inner=float(hypothesis.dot(direction)),
    )


def _checked_step(certificate: UpdateCertificate, eta: float,
                  scale: float) -> tuple[float, float]:
    """Shared validation for :func:`mw_step` / :func:`mw_step_inplace`.

    Checks positivity of ``eta``/``scale`` and that the certificate
    respects the declared family scale bound; returns both as floats.
    """
    eta = check_positive(eta, "eta")
    scale = check_positive(scale, "scale")
    direction = certificate.direction
    max_abs = (float(np.max(np.abs(direction))) / scale if direction.size
               else 0.0)
    if max_abs > 1.0 + 1e-6:
        raise ValidationError(
            f"certificate direction exceeds declared scale: max |u|/S = "
            f"{max_abs:.6g} > 1; the family scale bound is wrong"
        )
    return eta, scale


def mw_step(hypothesis: Histogram, certificate: UpdateCertificate, eta: float,
            scale: float, *, paper_sign: bool = False) -> Histogram:
    """One multiplicative-weights update of the hypothesis.

    Applies ``Dhat(x) <- Dhat(x) * exp(-eta * u(x) / S)`` (normalized,
    regret-consistent — see module docstring). ``paper_sign=True`` applies
    Figure 3's printed ``+`` sign instead; it exists solely for the E12
    ablation and is not used by the mechanism.
    """
    eta, scale = _checked_step(certificate, eta, scale)
    direction = certificate.direction / scale
    signed = direction if paper_sign else -direction
    return hypothesis.multiplicative_update(signed, eta)


def mw_step_inplace(hypothesis_core: LogHistogram,
                    certificate: UpdateCertificate, eta: float, scale: float,
                    *, paper_sign: bool = False) -> int:
    """The MW update of :func:`mw_step`, accumulated in place.

    Mathematically identical to ``mw_step`` (same validation, same
    regret-consistent sign), but applied to the versioned log-domain
    accumulator: one in-place ``log w += (∓eta/S) · u`` with normalization
    deferred to the next read, instead of a full log/exp/normalize pass
    constructing a fresh histogram. Bumps — and returns — the core's
    version, which is what every ``(fingerprint, version)``-keyed cache
    downstream invalidates on.

    Both steps execute on the hypothesis's
    :class:`~repro.backend.base.ArrayBackend` (the accumulation and the
    deferred normalization delegate to ``accumulate`` and the
    shifted-exp materialization); this function stays
    backend-agnostic — it only validates and fixes the sign.
    """
    eta, scale = _checked_step(certificate, eta, scale)
    signed_eta = (eta if paper_sign else -eta) / scale
    return hypothesis_core.apply_update(certificate.direction, signed_eta)


def certificate_inner_gap(certificate: UpdateCertificate,
                          data: Histogram) -> float:
    """The inner-product side of Claim 3.5: ``<u, Dhat - D>``.

    This is only the *left-hand side* of the claim's inequality — the
    amount by which the hypothesis over-weights the certificate direction
    relative to the true data. The full claim subtracts the excess-risk
    side; see :func:`claim_3_5_slack` for the complete (non-negative)
    slack. (Requires access to the true data histogram, so this is a
    *diagnostic*, never part of the private mechanism's output path.)
    """
    raise_if_mismatched(certificate.direction, data)
    return certificate.hypothesis_inner - data.dot(certificate.direction)


def claim_3_5_slack(loss: LossFunction, certificate: UpdateCertificate,
                    data: Histogram, hypothesis: Histogram) -> float:
    """Full Claim 3.5 slack: ``<u, Dhat - D> - (l_D(theta_hat) - l_D(theta))``.

    Non-negative whenever the loss is convex (up to solver tolerance).
    The left-hand side is :func:`certificate_inner_gap`.
    """
    lhs = certificate_inner_gap(certificate, data)
    rhs = (float(loss.loss_on(certificate.theta_hat, data))
           - float(loss.loss_on(certificate.theta_oracle, data)))
    return lhs - rhs


def raise_if_mismatched(direction: np.ndarray, histogram: Histogram) -> None:
    """Guard: the certificate must be over the histogram's universe."""
    if direction.shape != histogram.weights.shape:
        raise ValidationError(
            f"certificate has {direction.shape[0]} entries; histogram "
            f"universe has {histogram.weights.shape[0]}"
        )
