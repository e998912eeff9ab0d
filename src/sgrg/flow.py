"""The flow driver, ``run_flow``, with energy and field-strength bookkeeping.

One step loop serves both regimes, which differ by one bit, the mode.
The IR flow (beta > 8 pi) iterates the composed step on the shrinking tori
Lambda_{M-j}, feeding the field-strength extraction dsigma back into the
Gaussian measure and accumulating the energy

    E_{j+1} = E_j + dE_j |Lambda_{M-j}| - (1/2) tr log(1 + dsigma_j T).

The UV flow (beta < 8 pi) runs from j = -N up to 0, keeps sigma = 0,
extracts constants only, and maintains the split K_j = zeta_j V + Ktilde_j
with the exact linearized multiplier zeta_{j+1} = L^2 e^{-beta C(0)/2}
zeta_j (``predicted_charged_multiplier``).

The norm weights are fixed (``terms.NORM_H``, ``NORM_KAPPA`` and the
amplitude A = L^{d+3} of ``lattice.log_gamma_p``), as are the charge cap
``Q_MAX`` and the one quadrature node per block side ``FLOW_N_Q``; the
norms' Gamma_p shift follows from L (``_flow_gamma_p``).  A flow takes
beta, zeta, L and M or N only.  The truncation losses a step records
(clipped large-set norm, dropped term count) are carried in the trajectory
diagnostics; the README lists the truncations that leave no record.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import write_csv
from .activities import (
    FLOW_N_Q,
    activity_norm,
    mayer_init_cloud,
    mayer_init_truncated,
    polymer_exp,
    potentials,
    v_activity,
    whole_torus,
)
from .covariance import CovarianceKernel, star_norm, trlog_T
from .fields import FieldGrid, gaussian_ensemble, scale_field
from .lattice import TorusSpec
from .rgmap import (
    RGStepParams,
    clip_to_small,
    extract_step,
    extraction_coefficients,
    fluctuate_linear,
    rg_step,
)
from .terms import CovAccess

SIGMA_CAP = 0.1


# -- configuration ----------------------------------------------------------------


@dataclass
class FlowConfig:
    mode: str  # 'ir' | 'uv'
    beta: float
    zeta: complex
    L: int
    M: int  # IR: starting torus exponent (0 in UV)
    N: int  # UV: cutoff exponent (0 in IR)
    steps: int
    eps: float = field(init=False)  # 0.1 in IR, 0.2 in UV

    def __post_init__(self):
        if self.mode not in ("ir", "uv"):
            raise ValueError("mode must be 'ir' or 'uv'")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.beta <= 0:
            raise ValueError(f"beta must be > 0, got {self.beta}")
        self.eps = 0.1 if self.mode == "ir" else 0.2
        self.warnings = []
        if self.mode == "ir":
            if self.beta <= 8 * math.pi:
                self.warnings.append("IR flow configured with beta <= 8 pi")
            if abs(complex(self.zeta).imag) > 0:
                raise ValueError("IR flow requires real zeta")
            if self.steps > self.M:
                raise ValueError("IR flow needs steps <= M")
        else:
            if self.zeta == 0:
                raise ValueError("UV flow needs zeta != 0")
            if self.beta >= 8 * math.pi:
                self.warnings.append("UV flow configured with beta >= 8 pi")
            if self.steps > self.N:
                raise ValueError("UV flow needs steps <= N")


@dataclass
class FlowState:
    j: int
    sigma: float
    energy: float
    dE: float
    dsigma: float
    zeta_j: complex
    log_norm: float
    log_norm_tilde: float
    ratio: float
    charged_multiplier: float
    large_multiplier: float
    higher_share: float
    clipped_log_norm: float


@dataclass
class FlowTrajectory:
    config: FlowConfig
    states: list
    diagnostics: list

    def to_rows(self):
        """The fields of each state in order, zeta_j as zeta_abs = |zeta_j|."""
        return [
            dict(("zeta_abs", abs(v)) if k == "zeta_j" else (k, v)
                 for k, v in asdict(s).items())
            for s in self.states
        ]

    def write_csv(self, path):
        write_csv(path, self.to_rows())

    def write_json(self, path):
        payload = {
            "config": _config_json(self.config),
            "rows": self.to_rows(),
            "diagnostics": self.diagnostics,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1, default=_json_default)


def _json_default(x):
    """A complex number, such as a UV flow's zeta, as its two parts."""
    if isinstance(x, complex):
        return {"re": x.real, "im": x.imag}
    raise TypeError(f"{type(x).__name__} is not JSON serializable")


def _config_json(config: FlowConfig) -> dict:
    out = {}
    for k, v in asdict(config).items():
        out[k] = _json_default(v) if isinstance(v, complex) else v
    out["warnings"] = config.warnings
    return out


# -- helpers -------------------------------------------------------------------------


def _flow_gamma_p(config: FlowConfig) -> int:
    """Gamma_p shift for flow diagnostics: the full budget A = L^{d+3}
    requires |zeta| << 1/A, far below desk-scale couplings, so the flow
    norms use 2^{p|X|} A^{|X|} with p chosen to bring the per-block weight
    down to ~2 (the size sum then converges at the configured zeta)."""
    A = float(config.L ** (2 + 3))
    return -round(math.log2(A / 2.0))


def _step_params(config: FlowConfig, torus: TorusSpec, sigma: float,
                 c_star: float) -> RGStepParams:
    return RGStepParams(beta=config.beta, torus=torus, c_star=c_star,
                        p=_flow_gamma_p(config), sigma=sigma, preset=config.mode)


def _flow_step(K, params: RGStepParams, log_norm: float):
    """rg_step on K of log norm ``log_norm``, then the flow's two policies:
    a second extraction on the coarse lattice, where the scaling collapse
    has turned sub-block neutral structure into constants (and quadratic
    remnants) that would otherwise sit in K until the next step, and the
    restriction to small shapes.

    Returns (K', step coefficients, coarse coefficients, diagnostics); the
    clipped log norm is in the diagnostics."""
    K, coeffs, diag = rg_step(K, params, log_norm)
    K, coarse_coeffs = extract_step(K, params, {})
    K, diag["clipped_log_norm"] = clip_to_small(K, params.p)
    return K, coeffs, coarse_coeffs, diag


def _flow_star_norm(config: FlowConfig, torus: TorusSpec) -> float:
    """beta-scaled star norm of the slice kernel, computed once per flow
    (its sigma dependence is negligible at desk scale)."""
    return config.beta * star_norm(CovarianceKernel("slice", sigma=0.0, torus=torus))


# -- the flow driver ------------------------------------------------------------------


def uv_zeta_schedule(config: FlowConfig) -> list[complex]:
    """zeta_j = L^{-2|j|} e^{beta v^{|j|}_0(0)/2} zeta for j = -N..0."""
    out = []
    for j in range(-config.N, 1):
        n = abs(j)
        t = TorusSpec(config.L, n)
        v0 = CovarianceKernel("full", sigma=0.0, torus=t).at_zero()
        out.append(
            complex(config.zeta)
            * config.L ** (-2 * n)
            * math.exp(config.beta * v0 / 2.0)
        )
    return out


def predicted_charged_multiplier(config: FlowConfig, j: int, sigma: float) -> float:
    """The finite-volume one-step multiplier L^2 e^{-beta C_j(0)/2} of a unit
    charge: C_j is step j's slice kernel at ``sigma`` on the step's own torus,
    of side L^{M-j} (L^{|j|} in UV, where M = 0 and sigma = 0).  It is the
    zeta schedule's ratio, and the charged multiplier a flow step measures;
    L^{2-beta/4pi} is its limit on tori much larger than L."""
    t = TorusSpec(config.L, config.M - j)
    c0 = CovarianceKernel("slice", sigma=sigma, torus=t).at_zero()
    return config.L**2 * math.exp(-config.beta * c0 / 2.0)


def run_flow(config: FlowConfig) -> FlowTrajectory:
    """Iterate the flow step (``_flow_step``) from the Mayer activity,
    accumulating the energy.

    IR (``config.mode == "ir"``): the gradient preset, j = 0, 1, .. from
    Lambda_M, and sigma feedback (dsigma enters the next measure, -(1/2)
    tr log(1 + dsigma T) the energy).  UV: the constants-only preset,
    j = -N, .. from Lambda_N with sigma = 0, and the split K_j = zeta_j V +
    Ktilde_j along the zeta schedule.
    """
    ir = config.mode == "ir"
    j0, exponent = (0, config.M) if ir else (-config.N, config.N)
    torus = TorusSpec(config.L, exponent)
    zetas = None if ir else uv_zeta_schedule(config)
    K = mayer_init_truncated(complex(config.zeta).real if ir else zetas[0], torus)
    p = _flow_gamma_p(config)

    def norms(K, zeta_j):
        """log ||K|| and, tracking zeta, log ||K - zeta_j V||."""
        if ir:
            return activity_norm(K, p), -math.inf
        V = v_activity(K.torus, n_q=FLOW_N_Q, trans_invariant=True)
        return activity_norm(K, p), activity_norm(K.add(V, -zeta_j), p)

    sigma = 0.0
    energy = 0.0
    zeta_j = 0.0 if ir else zetas[0]
    log_norm, log_tilde = norms(K, zeta_j)
    if not log_norm < math.inf:  # NaN or +inf; zeta = 0 gives -inf and runs
        raise ValueError(f"--zeta {config.zeta!r}: the initial activity's log norm is {log_norm}")
    nan = float("nan")
    states = [FlowState(j=j0, sigma=sigma, energy=energy, dE=0.0, dsigma=0.0, zeta_j=zeta_j,
                        log_norm=log_norm, log_norm_tilde=log_tilde, ratio=nan,
                        charged_multiplier=nan, large_multiplier=nan, higher_share=nan,
                        clipped_log_norm=-math.inf)]
    diagnostics = []
    c_star = _flow_star_norm(config, torus)
    for step in range(config.steps):
        j = j0 + step
        params = _step_params(config, torus, sigma, c_star)
        K, coeffs, coarse_coeffs, diag = _flow_step(K, params, log_norm)
        mults = diag["multipliers"]
        dsig = coeffs.dsigma + coarse_coeffs.dsigma
        coarse = torus.coarse()
        energy = energy + coeffs.dE * torus.volume + coarse_coeffs.dE * coarse.volume
        if ir:
            energy = energy - 0.5 * trlog_T(coarse, sigma, dsig)
            sigma = sigma + dsig
            if abs(sigma) > SIGMA_CAP:
                raise RuntimeError(f"sigma left the allowed window: {sigma}")
        torus = coarse
        zeta_j = 0.0 if ir else zetas[step + 1]
        log_norm, log_tilde = norms(K, zeta_j)
        states.append(FlowState(
            j=j + 1, sigma=sigma, energy=energy, dE=coeffs.dE, dsigma=dsig,
            zeta_j=zeta_j, log_norm=log_norm, log_norm_tilde=log_tilde,
            ratio=math.exp(log_norm - states[-1].log_norm)
            if states[-1].log_norm > -math.inf
            else float("nan"),
            charged_multiplier=mults["charged"],
            large_multiplier=mults["large"],
            higher_share=mults["higher"],
            clipped_log_norm=diag["clipped_log_norm"],
        ))
        diagnostics.append(
            {"j": j, "hypotheses": diag["hypotheses"],
             "dropped_terms": diag["dropped_terms"],
             "anisotropy": [coeffs.anisotropy, coarse_coeffs.anisotropy]}
        )
    return FlowTrajectory(config=config, states=states, diagnostics=diagnostics)


# -- partition-function oracle ----------------------------------------------------------


@dataclass
class OracleResult:
    value: float
    stderr: float
    n_samples: int


ORACLE_N_Q = 1  # quadrature nodes per block side of the oracle's potential
ORACLE_ORDER = 6  # series order per block of the oracle's Mayer activity
Z0_SAMPLE_CAP = 2000  # most field samples z_invariance_check draws for Z(j)
Z1_SAMPLE_CAP = 400  # most samples z_invariance_check counts for Z(j+1) (a point mass)


def _rep_j1_value(k_sharp, F, psi) -> float:
    """The step-(j+1) integrand Exp(box + S E(K#, F))(Lambda', phi) at
    psi = phi_L, on a torus where every polymer pair touches.

    By scaling it is Exp(box + E(K#, F))(Lambda, psi), and by extraction
    e^{-sum_Y F(Y, psi)} Exp(box + K#)(Lambda, psi).
    """
    return (cmath.exp(-sum(F.values(F.support(), psi)))
            * polymer_exp(k_sharp, whole_torus(k_sharp.torus), psi)).real


def _z1_values(k_sharp, F, coarse: TorusSpec, dsig: float, count: int, n_g: int) -> np.ndarray:
    """``count`` draws of the step-(j+1) integrand under the coarse Gaussian
    measure of covariance beta * C(dsigma) on ``coarse``.

    The invariance check's coarse torus has side 1, where the kernel has no
    Fourier modes: the measure is the point mass at phi = 0, every draw is
    the same number, and it is evaluated once, at the scaled zero field.  A
    kernel with modes raises instead of being sampled.
    """
    kern_c = CovarianceKernel("full", sigma=dsig, torus=coarse)
    if len(kern_c.modes()[2]):
        raise ValueError(f"the coarse measure on side {coarse.side} is not a point mass")
    n = coarse.side * n_g
    zero = FieldGrid(coarse, n_g, np.zeros((n, n)))
    return np.full(count, _rep_j1_value(k_sharp, F, scale_field(zero)))


def z_invariance_check(
    beta: float, zeta: float, L: int, M: int, n_samples: int, seed: int, n_g: int,
) -> dict:
    """Compare MC estimates of Z in the step-j and step-(j+1) representations.

    Exact small-torus path (side <= 2, where every polymer pair touches):
    the fluctuation K# is the per-polymer convolution, and the scaling and
    extraction identities give the step-(j+1) integrand in closed form,
    e^{-sum_Y F(Y, phi_L)} Exp(box + K#)(Lambda, phi_L), with no series
    truncation.  So the check exercises the per-polymer fluctuation and the
    energy and sigma bookkeeping (dE, dsigma, the tr log and the coarse
    measure), not a separate assembly of E(K#, F) and its scaling S, which
    the ``extraction`` and ``scaling`` identity suites check pointwise.
    With the e^{-p^4} cutoff the side-2 torus carries no sub-cutoff modes
    (covariance ~ 1e-43), making the MC essentially deterministic; the
    pull is reported against a standard-error floor.  The side-1 coarse
    torus has no modes at all, so Z(j+1)'s measure is a point mass: its
    integrand is evaluated once and repeated ``min(n_samples,
    Z1_SAMPLE_CAP)`` times, and its stderr is the rounding of a mean of
    identical values (0.0 at 400 samples, 5.1e-17 at 20), not a sampling
    error.  Z(j) uses at most ``Z0_SAMPLE_CAP`` samples; the counts used
    are returned with the estimates.
    """
    if n_samples < 2:
        raise ValueError(f"a standard error needs n_samples >= 2, got {n_samples}")
    torus = TorusSpec(L, M)
    if torus.side > 2:
        raise ValueError("exact invariance check restricted to side <= 2")
    K0 = mayer_init_cloud(zeta, torus, ORACLE_N_Q, ORACLE_ORDER, torus.n_blocks)
    kern = CovarianceKernel("slice", sigma=0.0, torus=torus)
    # on side <= 2 every polymer pair touches: F K = mu_C * K per polymer
    k_sharp = fluctuate_linear(K0, CovAccess(kern, scale=beta))
    coeffs = extraction_coefficients(k_sharp, "ir", beta)
    dsig = coeffs.dsigma
    coarse = torus.coarse()
    energy1 = coeffs.dE * torus.volume - 0.5 * trlog_T(coarse, 0.0, dsig)

    kern_full = CovarianceKernel("full", sigma=0.0, torus=torus)
    ens = gaussian_ensemble(kern_full, torus, n_g, seed=seed, scale=beta)
    vals0 = np.array([polymer_exp(K0, whole_torus(torus), f).real
                      for f in ens.sample(min(n_samples, Z0_SAMPLE_CAP))])
    z0_mean, z0_se = float(np.mean(vals0)), float(np.std(vals0, ddof=1) / math.sqrt(len(vals0)))
    vals1 = _z1_values(k_sharp, coeffs.F, coarse, dsig, min(n_samples, Z1_SAMPLE_CAP), n_g)
    z1_mean = float(np.mean(vals1)) * math.exp(energy1)
    z1_se = float(np.std(vals1, ddof=1) / math.sqrt(len(vals1))) * math.exp(energy1)
    floor = 1e-6 * abs(z0_mean)
    pull = abs(z0_mean - z1_mean) / max(math.hypot(z0_se, z1_se), floor)
    return {
        "z0": OracleResult(z0_mean, z0_se, len(vals0)),
        "z1": OracleResult(z1_mean, z1_se, len(vals1)),
        "pull": pull,
        "rel_diff": abs(z0_mean - z1_mean) / abs(z0_mean),
        "dsigma": dsig,
        "dE": coeffs.dE,
        "se_floor_used": math.hypot(z0_se, z1_se) < floor,
    }


def z_derivative_check(
    beta: float, L: int, M: int, n_samples: int, seed: int, n_g: int,
) -> dict:
    """dZ/dzeta at zero equals |Lambda| e^{-beta v(0)/2}; MC versus closed form."""
    if n_samples < 2:
        raise ValueError(f"a standard error needs n_samples >= 2, got {n_samples}")
    torus = TorusSpec(L, M)
    kern = CovarianceKernel("full", sigma=0.0, torus=torus)
    expect = torus.volume * math.exp(-beta * kern.at_zero() / 2.0)
    ens = gaussian_ensemble(kern, torus, n_g, seed=seed, scale=beta)
    blocks = whole_torus(torus).sorted_blocks()
    vals = np.empty(n_samples)
    for i, fld in enumerate(ens.sample(n_samples)):
        vals[i] = sum(potentials(blocks, fld))
    mean = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / math.sqrt(n_samples))
    # fluctuation-free tori give se = 0 exactly; fall back to a relative floor
    denom = max(se, 1e-12 * abs(expect))
    return {"mc": mean, "stderr": se, "expected": expect,
            "pull": abs(mean - expect) / denom}


# -- contraction report -------------------------------------------------------------------


def contraction_reference(L: int, beta: float) -> tuple[float, float]:
    """(2 - beta/4pi, max(L^-2, L^(2 - beta/4pi))): the scaling exponent of
    the unit-charge sector, and the per-step norm ratio that the slower of
    it and the large-set contraction L^-2 predicts."""
    exponent = 2.0 - beta / (4.0 * math.pi)
    return exponent, max(L**-2.0, L**exponent)


def contraction_report(traj: FlowTrajectory) -> list[dict]:
    """Per-step table: norm ratios and sector multipliers against references;
    the charged multiplier against its infinite-volume limit (``charged_ref``)
    and its finite-volume prediction (``charged_fv_ref``)."""
    if len(traj.states) < 2:
        raise ValueError("contraction report needs at least two states")
    cfg = traj.config
    charged_exponent, delta_ref = contraction_reference(cfg.L, cfg.beta)
    rows = []
    for prev, cur in zip(traj.states, traj.states[1:]):
        row = {
            "j": cur.j,
            "ratio": cur.ratio,
            "delta_ref": delta_ref,
            "charged_multiplier": cur.charged_multiplier,
            "charged_ref": cfg.L**charged_exponent,
            "charged_fv_ref": predicted_charged_multiplier(cfg, prev.j, prev.sigma),
            "large_multiplier": cur.large_multiplier,
            "large_ref": cfg.L**-2.0,
            "higher_share": cur.higher_share,
        }
        if cfg.mode == "uv":
            row["zeta_abs"] = abs(cur.zeta_j)
            row["zeta_ratio"] = (
                abs(cur.zeta_j) / abs(prev.zeta_j) if prev.zeta_j else float("nan")
            )
            row["log_norm_tilde"] = cur.log_norm_tilde
            row["tilde_target"] = (2.0 - 4.0 * cfg.eps) * math.log(abs(cur.zeta_j))
        rows.append(row)
    return rows
