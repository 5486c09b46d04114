"""Brute-force validators for every closed form in `medium` and `cycle`.

Nothing here uses the normal-mode formulas as input to its own spectra:
spin pairs are diagonalized exactly (the 4x4 matrix or its two 2x2
blocks), oscillator pairs on a truncated two-mode Fock space, and
thermal quantities come from explicit Boltzmann sums.  The Fock
Hamiltonian is never diagonalized whole, but on the finest blocks its
couplings conserve, scattered from its entry list by one cached map per
coupling model and cutoff: n1 + n2 (xx) or n1 - n2 (xy), at most 17 wide
at the default cutoff 16, for both the spectrum and the heat transport;
for any other coupling, the parity of n1 + n2 times the 1 <-> 2 exchange
(widths 81/64/72/72).  The closed forms are read from the array kernels
the CLI prints from: `medium.spin_mode_frequencies`,
`medium.oscillator_mode_frequencies`, `cycle.heats_arrays` and
`entanglement.xx_thermal_concurrence`, which Wootters' concurrence of
the Gibbs state of the exact 4x4 eigensolve checks.

The check functions take parameter arrays and return one relative
residual per entry.  `run_verification` bundles them into the randomized
suite behind the CLI `verify` command: it draws every parameter first,
then evaluates each check over arrays of draws, grouped by the blocks or
ladder depth they need, in chunks whose stacked eigensolve input (or
ladder arrays) stay within 512 KiB: a larger cap raised the peak RSS.

Random-draw protocol (documented because the truncated diagonalization
must stay clear of the instability edge): bare frequencies in [2, 6],
oscillator couplings bounded by 0.4 * omega, spin exchange constants by
0.35 * min(omega, omega'), bath temperatures t_c in [0.5, 2] with
t_h/t_c in [1.5, 4].
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import cycle as _cycle
from . import medium as _medium
from .entanglement import (
    concurrence_batch,
    spin_pair_hamiltonian_batch,
    thermal_state_batch,
    xx_thermal_concurrence,
)
from .errors import DomainError, NumericalError, UnknownModel
from .medium import BathPair, MediumKind, model_coupling

__all__ = [
    "exact_spin_spectrum",
    "truncated_oscillator_matrix",
    "truncated_oscillator_spectrum",
    "suggest_truncation",
    "spin_spectrum_check",
    "oscillator_spectrum_check",
    "thermal_energy_check",
    "mode_heat_check",
    "spin_cycle_heat_check",
    "oscillator_cycle_heat_check",
    "spin_concurrence_check",
    "CheckResult",
    "VerificationReport",
    "run_verification",
]

TRUNCATION_CAP = 200
_STACK_DOUBLES = 1 << 16  # float64 entries (512 KiB) per chunk of draws

SPIN = MediumKind.SPIN
OSC = MediumKind.OSCILLATOR


def exact_spin_spectrum(omega, j_x, j_y) -> np.ndarray:
    """Sorted eigenvalues of the 4x4 coupled spin-pair Hamiltonian, along
    a last axis of length 4 for parameter arrays."""
    return np.sort(np.linalg.eigvalsh(spin_pair_hamiltonian_batch(omega, j_x, j_y)), axis=-1)


def _fock_entries(omega, lambda_x, lambda_p, n_max: int):
    """Entries of `truncated_oscillator_matrix`, state |n1, n2> at index
    n1 (n_max + 1) + n2: (n1, n2, diagonal, rows, cols, values), the
    off-diagonal ones of the upper triangle only.  Parameter arrays give
    the diagonal and the values along a new last axis, one index pattern.
    """
    omega, lambda_x, lambda_p = np.broadcast_arrays(omega, lambda_x, lambda_p)
    if not np.all(omega > np.maximum(abs(lambda_x), abs(lambda_p))):
        raise DomainError(
            f"need omega > max(|lambda_x|, |lambda_p|), got omega={omega}, "
            f"lambda_x={lambda_x}, lambda_p={lambda_p}"
        )
    if n_max < 1:
        raise DomainError(f"n_max must be >= 1, got {n_max}")
    d = n_max + 1
    n1, n2 = np.divmod(np.arange(d * d), d)
    # flip-flop c1+ c2: |n1, n2> -> |n1+1, n2-1> with amplitude sqrt((n1+1) n2)
    flip = np.flatnonzero((n1 < n_max) & (n2 > 0))
    # pair creation c1+ c2+: |n1, n2> -> |n1+1, n2+1> with sqrt((n1+1)(n2+1))
    pair = np.flatnonzero((n1 < n_max) & (n2 < n_max))
    values = np.concatenate([
        (0.5 * (lambda_x + lambda_p))[..., None] * np.sqrt((n1[flip] + 1.0) * n2[flip]),
        (0.5 * (lambda_x - lambda_p))[..., None] * np.sqrt((n1[pair] + 1.0) * (n2[pair] + 1.0)),
    ], axis=-1)
    rows = np.concatenate([flip, pair])
    cols = np.concatenate([flip + d - 1, pair + d + 1])
    return n1, n2, omega[..., None] * (n1 + n2 + 1.0), rows, cols, values


def truncated_oscillator_matrix(
    omega: float, lambda_x: float, lambda_p: float, n_max: int
) -> np.ndarray:
    """Coupled-oscillator Hamiltonian on the truncated two-mode Fock space.

    Assembles Omega (c1+ c1 + c2+ c2 + 1) plus the flip-flop term with
    strength (lambda_x + lambda_p)/2 and the double-(de)excitation term
    with strength (lambda_x - lambda_p)/2, each mode cut at `n_max`
    excitations.  Real symmetric, dimension (n_max + 1)^2.
    """
    _, _, diagonal, rows, cols, values = _fock_entries(omega, lambda_x, lambda_p, n_max)
    h = np.diag(diagonal)
    h[rows, cols] = h[cols, rows] = values
    return h


@functools.lru_cache(maxsize=16)
def _blocks(model: str, n_max: int):
    """Scatter maps of the blocks of the truncated Fock Hamiltonian that
    the couplings of `model` conserve, computed once per (model, n_max).

    xx conserves N = n1 + n2 and xy conserves d = n1 - n2, in the Fock
    basis; the xy blocks with d < 0 mirror those with d > 0, so only d >= 0
    is solved and each d > 0 level counts twice.  Any other coupling
    conserves the parity of n1 + n2, and the single bare frequency makes H
    commute with the 1 <-> 2 exchange: four blocks in the basis
    (|n1 n2> +- |n2 n1>)/sqrt(2) with n1 < n2, plus |n n> in the
    even-symmetric block.  Returns the groups, of read-only arrays.

    A group is one stacked eigensolve, (shape, target, source, coef, keep,
    mult): the flattened stack accumulates coef * entries[source] at
    `target`, with entries the diagonal and the off-diagonal values of
    `_fock_entries`, then a pad level for the blocks narrower than the
    group's widest.  A vector's rank is its position among its block's
    sorted vectors; `keep` picks the levels that are not pads, in (block,
    rank) order, and `mult` is the multiplicity of each.
    """
    d = n_max + 1
    # the index pattern of the entries does not depend on the couplings
    n1, n2, _, rows, cols, _ = _fock_entries(1.0, 0.0, 0.0, n_max)
    # every matrix entry, (i, i) and both triangles, and where its value sits
    i = np.concatenate([np.arange(d * d), rows, cols])
    j = np.concatenate([np.arange(d * d), cols, rows])
    source = np.concatenate([np.arange(d * d + rows.size), np.arange(rows.size) + d * d])
    if model == "general":
        code = np.minimum(n1, n2) * d + np.maximum(n1, n2)  # the basis vector of each state
        label = np.zeros_like(code)  # one block per group
        paired = n1 != n2
        sign = np.where(n1 > n2, -1.0, 1.0)
        # a product of two basis coefficients is 1, sqrt(1/2) or 1/2 by how
        # many of the two states are paired, taken exactly
        scale = np.array([1.0, np.sqrt(0.5), 0.5])[paired[i].astype(int) + paired[j]]
        members = [
            (((n1 + n2) % 2 == parity) & (paired | (not antisymmetric)),
             scale * (sign[i] * sign[j] if antisymmetric else 1.0))
            for parity in (0, 1) for antisymmetric in (False, True)
        ]
    else:
        label = n1 + n2 if model == "xx" else n1 - n2
        code = label * d * d + np.arange(d * d)  # the block, then the state
        members = [(label >= 0, np.ones(i.size))]
    groups = []
    for member, coef in members:
        # entries between blocks belong to a term that vanishes for this
        # model, and the xy blocks with d < 0 are not solved
        inside = member[i] & member[j] & (label[i] == label[j])
        # the sorted codes present, each once; not np.unique, which imports numpy.ma
        present = np.sort(code[member])
        present = present[np.diff(present, prepend=-1) > 0]
        rank = np.searchsorted(present, code) - np.searchsorted(present, label * d * d)
        width = np.bincount(present // (d * d), minlength=1)  # a block is empty at n_max 1
        m = int(width.max())
        block, slot = np.nonzero(np.arange(m) >= width[:, None])
        groups.append((
            (width.size, m, m),
            np.concatenate([((label[i] * m + rank[i]) * m + rank[j])[inside],
                            block * m * m + slot * (m + 1)]),
            np.concatenate([source[inside], np.full(block.size, d * d + rows.size)]),
            np.concatenate([coef[inside], np.ones(block.size)]),
            np.flatnonzero(np.arange(m) < width[:, None]),
            np.repeat(np.where((model == "xy") & (np.arange(width.size) > 0), 2, 1), width),
        ))
    for a in [a for group in groups for a in group[1:]]:
        a.setflags(write=False)
    return tuple(groups)


def _block_levels(omega, lambda_x, lambda_p, model: str, n_max: int):
    """Levels of the truncated Fock Hamiltonian along a last axis, one
    `eigvalsh` call per group of `_blocks(model, n_max)`, and the
    multiplicity of each level.  Each xx or xy block is an omega-diagonal
    plus lam times a matrix independent of omega, so the within-block
    order never changes as omega is driven: (block, rank) is the exact
    adiabatic label.  The pad level sits on the diagonal above every
    level, so it sorts last in its block and `keep` drops it; the pads
    have zero off-diagonals, at which LAPACK splits the matrix, so the
    kept levels are those of each block solved alone."""
    _, _, diagonal, _, _, values = _fock_entries(omega, lambda_x, lambda_p, n_max)
    groups = _blocks(model, n_max)
    # Gershgorin over the whole matrix: no level exceeds diagonal.max() + sum |values|
    top = 2.0 * (diagonal.max(axis=-1) + np.abs(values).sum(axis=-1)) + 1.0
    entries = np.concatenate([diagonal, values, top[..., None]], axis=-1)
    lead = entries.shape[:-1]
    # each draw's entries land in its own slab of one bincount
    draw = np.arange(math.prod(lead)).reshape(lead + (1,))
    levels = []
    for shape, target, source, coef, keep, _ in groups:
        size = math.prod(shape)
        stack = np.bincount((target + size * draw).ravel(), (coef * entries[..., source]).ravel(),
                            draw.size * size).reshape(lead + shape)
        # C order (np.take), so that each entry's levels are summed as one
        # contiguous run
        levels.append(np.take(np.linalg.eigvalsh(stack).reshape(lead + (-1,)), keep, axis=-1))
    return np.concatenate(levels, axis=-1), np.concatenate([g[-1] for g in groups])


def truncated_oscillator_spectrum(
    omega: float, lambda_x: float, lambda_p: float, n_max: int
) -> np.ndarray:
    """Sorted eigenvalues of `truncated_oscillator_matrix` along a last
    axis, solved on the finest blocks its couplings conserve.

    lambda_x == lambda_p (xx) conserves N = n1 + n2 and lambda_x == -lambda_p
    (xy) conserves d = n1 - n2: their sectors are solved, expanded by
    multiplicity.  Any other pair, or parameter arrays that do not all
    conserve the same one, is solved on the four parity x exchange blocks.
    """
    model = ("xx" if np.all(lambda_x == lambda_p)
             else "xy" if np.all(lambda_x == -lambda_p) else "general")
    levels, mult = _block_levels(omega, lambda_x, lambda_p, model, n_max)
    return np.sort(np.repeat(levels, mult, axis=-1), axis=-1)


def _stack_size(model: str, n_max: int) -> int:
    """Float64 entries of one draw's largest stacked eigensolve input."""
    return max(math.prod(shape) for shape, *_ in _blocks(model, n_max))


def _grouped(check, key, *columns, size=lambda n: 8 * (n + 1)):
    """`check(*columns, n)` over the draws grouped by their value n of the
    integer array `key`, in chunks of at most _STACK_DOUBLES // size(n)
    draws (at least one), with the results put back in draw order.  The
    default size is that of a ladder check of depth n, which holds about
    eight arrays of the ladder's length at once."""
    key = np.asarray(key)
    columns = [np.broadcast_to(c, key.shape).ravel() for c in columns]
    chunks, parts = [], []
    for n in set(key.ravel().tolist()):
        draws = np.flatnonzero(key == n)
        step = max(1, _STACK_DOUBLES // size(n))
        for i in range(0, draws.size, step):
            chunks.append(draws[i:i + step])
            parts.append(np.asarray(check(*(c[chunks[-1]] for c in columns), n)))
    out = np.empty(parts[0].shape[:-1] + (key.size,))
    out[..., np.concatenate(chunks)] = np.concatenate(parts, axis=-1)
    return out.reshape(out.shape[:-1] + key.shape)[()]


def suggest_truncation(beta, omega, tol: float = 1e-12, cap: int = TRUNCATION_CAP):
    """Ladder depth for Boltzmann sums on a mode of frequency `omega`, an
    int, or one per entry of parameter arrays.

    Doubles the depth until successive partition-sum estimates agree to
    `tol` (relative).  At the cap the depth is accepted if the terms
    beyond it sum below `tol` (relative); otherwise NumericalError, which
    happens for very shallow beta*omega where the thermal tail never fits.
    """
    beta, omega = np.broadcast_arrays(beta, omega)
    if not np.all((beta > 0.0) & (omega > 0.0)):
        raise DomainError(f"need beta > 0 and omega > 0, got beta={beta}, omega={omega}")
    x = (beta * omega).ravel()
    depth = np.full(x.size, cap)
    left = np.arange(x.size)  # the entries still doubling
    n = 8
    z_prev = np.exp(-x[:, None] * np.arange(n + 1)).sum(axis=-1)
    while n < cap and left.size:
        n = min(2 * n, cap)
        terms = -x[left, None] * np.arange(n + 1)
        z = np.exp(terms, out=terms).sum(axis=-1)
        del terms  # before the next depth's terms are allocated
        done = abs(z - z_prev) <= tol * z
        depth[left[done]] = n
        left, z_prev = left[~done], z[~done]
    # geometric tail: sum over k > cap of exp(-beta omega k)
    tail = np.exp(-x[left] * (cap + 1)) / -np.expm1(-x[left])
    bad = left[~(tail <= tol * z_prev)]
    if bad.size:
        raise NumericalError(f"truncation cap {cap} exceeded for beta*omega = {x[bad[0]]:.3g}")
    return int(depth[0]) if beta.ndim == 0 else depth.reshape(beta.shape)


# ---------------------------------------------------------------------------
# spectrum and partition checks


def spin_spectrum_check(omega, j_x, j_y, beta):
    """(spectrum, partition) residuals of the coupled spin pair from one
    exact 4x4 eigensolve; parameter arrays give one residual per entry.

    Spectrum: relative mismatch with the two-mode ladder {E0, E0+w_b,
    E0+w_a, E0+w_a+w_b} built from the closed-form mode frequencies (common
    offset taken from the brute ground state).  Partition:
    |Z_exact - Z_A Z_B| / Z_exact, with Z_exact summed over the exact
    spectrum and 2 cosh(beta w / 2) per mode; the exact spectrum sits at a
    constant offset 2*omega from the ladder-product form, which is divided
    out before comparison.
    """
    brute = exact_spin_spectrum(omega, j_x, j_y)
    w_a, w_b = _medium.spin_mode_frequencies(omega, j_x, j_y)
    e0 = brute[..., 0]
    predicted = np.sort(np.stack([e0, e0 + w_b, e0 + w_a, e0 + w_a + w_b], axis=-1), axis=-1)
    spectrum = np.abs(brute - predicted).max(axis=-1) / np.maximum(1.0, abs(brute[..., -1]))
    beta = np.asarray(beta)
    shifted = brute - 2.0 * np.asarray(omega)[..., None]
    z_exact = np.exp(-beta[..., None] * shifted).sum(axis=-1)
    z_closed = 4.0 * np.cosh(0.5 * beta * w_a) * np.cosh(0.5 * beta * w_b)
    return spectrum, abs(z_exact - z_closed) / z_exact


def oscillator_spectrum_check(
    omega: float, lambda_x: float, lambda_p: float, beta: float, n_max: int = 16, levels: int = 20
) -> tuple[float, float]:
    """(spectrum, partition) residuals of the coupled oscillator pair from
    one truncated Fock spectrum (`truncated_oscillator_spectrum`: the
    conserved sectors for xx and xy pairs, the four parity x exchange
    blocks for any other); parameter arrays give one residual per entry.

    Spectrum: relative mismatch between the lowest `levels` brute-force
    eigenvalues and the closed-form product spectrum
    n_a w_a + n_b w_b + (w_a + w_b)/2.  Partition: |Z_exact - Z_A Z_B| /
    Z_exact with exp(-beta w/2)/(1 - exp(-beta w)) per mode, which needs
    the Boltzmann tail beyond `n_max` to be negligible.
    """
    brute = truncated_oscillator_spectrum(omega, lambda_x, lambda_p, n_max)
    w_a, w_b = _medium.oscillator_mode_frequencies(omega, lambda_x, lambda_p)
    n = np.arange(levels + 1) + 0.5
    ladder = n[:, None] * w_a[..., None, None] + n[None, :] * w_b[..., None, None]
    predicted = np.sort(ladder.reshape(w_a.shape + (-1,)), axis=-1)[..., :levels]
    spectrum = np.abs(brute[..., :levels] - predicted).max(axis=-1)
    spectrum /= np.maximum(1.0, abs(predicted[..., -1]))
    q_a, q_b = np.exp(-beta * w_a), np.exp(-beta * w_b)
    z_closed = np.sqrt(q_a) / (1.0 - q_a) * (np.sqrt(q_b) / (1.0 - q_b))
    z_exact = np.exp(-np.asarray(beta)[..., None] * brute).sum(axis=-1)
    return spectrum, abs(z_exact - z_closed) / z_exact


# ---------------------------------------------------------------------------
# thermal checks


def _ladder(kind: MediumKind, omega, n_max: int | None) -> np.ndarray:
    """Single-mode levels (n + 1/2) omega along a new last axis: n up to
    `n_max` for oscillators, n in {0, 1} for spins."""
    n = np.arange(n_max + 1 if kind is OSC else 2) + 0.5
    return n * np.asarray(omega)[..., None]


def _boltzmann(beta, energies: np.ndarray, mult=1.0) -> np.ndarray:
    """Thermal populations over the last axis of `energies`, each level
    weighted by its multiplicity."""
    gaps = energies - energies.min(axis=-1, keepdims=True)
    p = mult * np.exp(-np.asarray(beta)[..., None] * gaps)
    return p / p.sum(axis=-1, keepdims=True)


def _transport(e_hot, e_cold, beta_h, beta_c, mult=1.0):
    """Brute-force (Q_h, Q_c): populations thermalized on the hot levels are
    carried level by level to the cold levels (the adiabatic strokes), and
    each heat is the energy change of one isochore."""
    p_hot = _boltzmann(beta_h, e_hot, mult)
    p_cold = _boltzmann(beta_c, e_cold, mult)
    return np.vecdot(e_hot, p_hot - p_cold), np.vecdot(e_cold, p_cold - p_hot)


def thermal_energy_check(kind: MediumKind, omega, beta, n_max: int | None = None):
    """Closed-form single-mode thermal energy vs a brute Boltzmann average;
    parameter arrays give one residual per entry.

    Oscillator closed form: (omega/2) coth(beta omega / 2) over the ladder
    (n + 1/2) omega, each entry to its own `suggest_truncation` depth
    unless `n_max` is given.  Spin closed form: omega - (omega/2)
    tanh(beta omega/2) over the two levels omega/2 and 3 omega/2.
    """
    if kind is OSC and n_max is None:
        depth = suggest_truncation(beta, omega)
        return _grouped(lambda *draws: thermal_energy_check(kind, *draws), depth, omega, beta)
    if kind is OSC:
        closed = 0.5 * omega * _cycle.coth(0.5 * beta * omega)
    else:
        closed = omega - 0.5 * omega * np.tanh(0.5 * beta * omega)
    energies = _ladder(kind, omega, n_max)
    brute = np.vecdot(energies, _boltzmann(beta, energies))
    return abs(brute - closed) / np.maximum(1.0, abs(closed))


def mode_heat_check(
    kind: MediumKind, omega_hot, omega_cold, beta_h, beta_c, n_max: int | None = None
):
    """Closed-form per-mode heats vs explicit population bookkeeping;
    parameter arrays give one residual per entry.

    The brute side thermalizes on the hot ladder, carries the populations
    over by excitation number (the adiabatic invariant), and reads the
    heats off the two Boltzmann sums; no coth/tanh identities involved.
    Oscillator ladders go as deep as the deeper `suggest_truncation` depth
    of the two points of each entry unless `n_max` is given.
    """
    if kind is OSC and n_max is None:
        depth = np.maximum(*map(suggest_truncation, (beta_h, beta_c), (omega_hot, omega_cold)))
        return _grouped(lambda *draws: mode_heat_check(kind, *draws), depth,
                        omega_hot, omega_cold, beta_h, beta_c)
    b_h, b_c = _transport(
        _ladder(kind, omega_hot, n_max), _ladder(kind, omega_cold, n_max), beta_h, beta_c
    )
    q_h, q_c, w = _cycle.heats_arrays(kind, omega_hot, omega_cold, beta_h, beta_c)
    worst = np.maximum(np.maximum(abs(q_h - b_h), abs(q_c - b_c)), abs(w - b_h - b_c))
    return worst / np.maximum(1.0, np.maximum(abs(q_h), abs(q_c)))


def _cycle_residual(kind: MediumKind, hot, cold, beta_h, beta_c, brute):
    """Mismatch of the brute composite (Q_h, Q_c) with the summed closed-form
    heats of modes A and B; `hot` and `cold` are the (w_a, w_b) mode
    frequencies at the two points."""
    (qa_h, qa_c, _), (qb_h, qb_c, _) = (
        _cycle.heats_arrays(kind, w_hot, w_cold, beta_h, beta_c)
        for w_hot, w_cold in zip(hot, cold)
    )
    q_h, q_c = qa_h + qb_h, qa_c + qb_c
    worst = np.maximum(abs(q_h - brute[0]), abs(q_c - brute[1]))
    return worst / np.maximum(1.0, np.maximum(abs(q_h), abs(q_c)))


def oscillator_cycle_heat_check(
    omega: float, omega_prime: float, lam: float, model: str, beta_h: float, beta_c: float,
    n_max: int = 24,
) -> float:
    """End-to-end heats of the coupled oscillator cycle from block-resolved
    brute force vs the sum of closed-form mode heats (xx and xy models);
    parameter arrays give one residual per entry.

    Thermal populations are computed over the full truncated spectrum and
    transported between the hot and cold points by (conserved block,
    within-block rank); the general coupling only conserves parity, so it
    is not covered here (the spectrum and per-mode checks are).
    """
    if model not in ("xx", "xy"):
        raise UnknownModel(f"sector transport covers 'xx' and 'xy', got {model!r}")
    coupling = model_coupling(model, lam)
    e_hot, mult = _block_levels(omega, *coupling, model, n_max)
    e_cold, _ = _block_levels(omega_prime, *coupling, model, n_max)
    hot = _medium.oscillator_mode_frequencies(omega, *coupling)
    cold = _medium.oscillator_mode_frequencies(omega_prime, *coupling)
    brute = _transport(e_hot, e_cold, beta_h, beta_c, mult)
    return _cycle_residual(OSC, hot, cold, beta_h, beta_c, brute)


def spin_cycle_heat_check(omega, omega_prime, j_x, j_y, beta_h, beta_c):
    """End-to-end heats of the coupled spin cycle from the composite 4x4
    problem vs the sum of closed-form mode heats; parameter arrays give one
    residual per entry.

    The |ud>/|du> and |uu>/|dd> blocks are decoupled for every coupling,
    and within each block the two levels never cross as omega is driven,
    so ordering the levels block by block realizes the adiabatic
    correspondence exactly.  Populations are transported along that order;
    heats are energy differences of the resulting states.
    """
    h = spin_pair_hamiltonian_batch(np.stack([omega, omega_prime]), j_x, j_y)
    inner = np.linalg.eigvalsh(h[..., 1:3, 1:3])
    outer = np.linalg.eigvalsh(h[..., ::3, ::3])
    e_hot, e_cold = np.concatenate([inner, outer], axis=-1)
    hot = _medium.spin_mode_frequencies(omega, j_x, j_y)
    cold = _medium.spin_mode_frequencies(omega_prime, j_x, j_y)
    brute = _transport(e_hot, e_cold, beta_h, beta_c)
    return _cycle_residual(SPIN, hot, cold, beta_h, beta_c, brute)


def spin_concurrence_check(omega, lam, beta):
    """Wootters' concurrence of the XX pair's Gibbs state, built from the
    exact 4x4 eigensolve (`entanglement.thermal_state_batch`), vs the
    closed form the sampler prints; parameter arrays give one absolute
    residual per entry."""
    gibbs = thermal_state_batch(spin_pair_hamiltonian_batch(omega, lam, lam), beta)
    return abs(concurrence_batch(gibbs) - xx_thermal_concurrence(omega, lam, beta))


# ---------------------------------------------------------------------------
# randomized verification suite


@dataclass(frozen=True)
class CheckResult:
    name: str
    draws: int
    max_residual: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.max_residual < self.threshold


@dataclass
class VerificationReport:
    level: str
    seed: int
    checks: list[CheckResult] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def format_table(self) -> str:
        lines = [f"{'check':<28} {'draws':>6} {'max residual':>14} {'threshold':>10}  result"]
        for c in self.checks:
            lines.append(
                f"{c.name:<28} {c.draws:>6} {c.max_residual:>14.3e} "
                f"{c.threshold:>10.0e}  {'pass' if c.passed else 'FAIL'}"
            )
        lines.append(f"elapsed: {self.elapsed:.2f} s")
        return "\n".join(lines)


SPIN_RESIDUAL = 1e-12
OSC_RESIDUAL = 1e-10

_MODELS = ("xx", "xy", "general")


def _draw_baths(rng) -> BathPair:
    t_c = rng.uniform(0.5, 2.0)
    return BathPair(t_h=t_c * rng.uniform(1.5, 4.0), t_c=t_c)


def _draw_coupling(rng, model: str, cap: float) -> tuple[float, float]:
    """Coupling pair of `model` with each drawn value uniform on [-cap, cap]."""
    values = [rng.uniform(-cap, cap) for _ in range(2 if model == "general" else 1)]
    return model_coupling(model, *values)


def run_verification(level: str = "quick", seed: int = 0) -> VerificationReport:
    """Randomized oracle suite over all media and coupling models.

    `quick` uses ~100 draws per check, `full` 1000 per medium/model; the
    spin concurrence check takes the xx spin draws at both of their
    points.  Thresholds: 1e-12 for the exactly diagonalizable spin pair,
    1e-10 for the truncated oscillator pair.
    """
    if level not in ("quick", "full"):
        raise UnknownModel(f"verification level must be 'quick' or 'full', got {level!r}")
    per_model = 34 if level == "quick" else 1000
    draws = per_model * len(_MODELS)
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    report = VerificationReport(level=level, seed=seed)

    def add(name, threshold, residuals):
        report.checks.append(
            CheckResult(name, len(residuals), float(np.max(residuals)), threshold)
        )

    # spin checks, all exact: draw every parameter, then one stacked call per check
    def spin_draw(i):
        omega = rng.uniform(2.0, 6.0)
        omega_prime = omega * rng.uniform(0.4, 1.4)
        # the cap keeps l_plus below the mode spacing at both points
        j_x, j_y = _draw_coupling(rng, _MODELS[i % 3], 0.35 * min(omega, omega_prime))
        baths = _draw_baths(rng)
        beta_z = rng.uniform(0.2, 2.0)
        beta_e = rng.uniform(0.05, 2.0)
        return omega, omega_prime, j_x, j_y, baths.beta_h, baths.beta_c, beta_z, beta_e

    # one draw at a time into one table, in the generator's order
    table = np.fromiter(map(spin_draw, range(draws)), np.dtype((float, 8)), draws)
    omega, omega_prime, j_x, j_y, beta_h, beta_c, beta_z, beta_e = table.T
    spectrum, partition = spin_spectrum_check(omega, j_x, j_y, beta_z)
    add("spin spectrum", SPIN_RESIDUAL, spectrum)
    add("spin partition", SPIN_RESIDUAL, partition)
    add("spin thermal energy", SPIN_RESIDUAL, thermal_energy_check(SPIN, omega, beta_e))
    w_a = _medium.spin_mode_frequencies(omega, j_x, j_y)[0]
    w_a_prime = _medium.spin_mode_frequencies(omega_prime, j_x, j_y)[0]
    add("spin mode heats", SPIN_RESIDUAL, mode_heat_check(SPIN, w_a, w_a_prime, beta_h, beta_c))
    add(
        "spin cycle heats",
        SPIN_RESIDUAL,
        spin_cycle_heat_check(omega, omega_prime, j_x, j_y, beta_h, beta_c),
    )
    # the xx draws (every third) at both points of their cycle; on these
    # warm states Wootters through sqrt(rho) was measured within 3e-16
    xx = slice(0, None, 3)
    add(
        "spin concurrence",
        SPIN_RESIDUAL,
        spin_concurrence_check(
            np.concatenate([omega[xx], omega_prime[xx]]),
            np.tile(j_x[xx], 2),
            np.concatenate([beta_h[xx], beta_c[xx]]),
        ),
    )

    # oscillator checks, truncated Fock brute force
    def osc_draw(i):
        omega = rng.uniform(2.0, 6.0)
        lx, lp = _draw_coupling(rng, _MODELS[i % 3], 0.4 * omega)
        x = rng.uniform(2.5, 6.0)
        w = rng.uniform(1.5, 8.0)
        beta_e = rng.uniform(0.25, 4.0) / w
        baths = _draw_baths(rng)
        w_hot = rng.uniform(1.5, 8.0)
        w_cold = w_hot * rng.uniform(0.3, 1.4)
        return omega, lx, lp, x, w, beta_e, w_hot, w_cold, baths.beta_h, baths.beta_c

    table = np.fromiter(map(osc_draw, range(draws)), np.dtype((float, 10)), draws)
    omega, lx, lp, x, w, beta_e, w_hot, w_cold, beta_h, beta_c = table.T
    # one spectrum per draw feeds both the low-lying spectrum check and the
    # partition sum (depth 16 keeps the Boltzmann tail below 1e-13 for
    # beta * w_min >= 2.5); the draws are grouped by the blocks they solve
    w_min = np.minimum(*_medium.oscillator_mode_frequencies(omega, lx, lp))
    branch = np.where(lx == lp, 0, np.where(lx == -lp, 1, 2))  # index into _MODELS
    spectrum, partition = _grouped(
        lambda *draws: oscillator_spectrum_check(*draws[:-1]), branch, omega, lx, lp, x / w_min,
        size=lambda b: _stack_size(_MODELS[b], 16),
    )
    add("oscillator spectrum", OSC_RESIDUAL, spectrum)
    add("oscillator partition", OSC_RESIDUAL, partition)
    add("oscillator thermal energy", OSC_RESIDUAL, thermal_energy_check(OSC, w, beta_e))
    add("oscillator mode heats", OSC_RESIDUAL, mode_heat_check(OSC, w_hot, w_cold, beta_h, beta_c))

    # end-to-end composite heats via block-resolved transport (xx/xy in
    # turn; the general coupling conserves nothing finer than parity)
    def cycle_draw(_):
        omega = rng.uniform(2.0, 6.0)
        omega_prime = omega * rng.uniform(0.55, 0.95)
        lam = rng.uniform(-0.4, 0.4) * omega_prime
        return omega, omega_prime, lam, rng.uniform(2.5, 4.0), rng.uniform(1.5, 2.0)

    table = np.fromiter(map(cycle_draw, range(2 * per_model)), np.dtype((float, 5)), 2 * per_model)
    omega, omega_prime, lam, x_c, t_ratio = table.T
    lp = np.where(np.arange(lam.size) % 2, -lam, lam)
    t_c = np.minimum(*_medium.oscillator_mode_frequencies(omega_prime, lam, lp)) / x_c
    beta_h, beta_c = 1.0 / (t_c * t_ratio), 1.0 / t_c
    x_h = beta_h * np.minimum(*_medium.oscillator_mode_frequencies(omega, lam, lp))
    n_max = np.ceil(34.0 / np.minimum(x_h, x_c)).astype(int) + 4
    res_cycle = np.empty(lam.size)
    for first, model in enumerate(("xx", "xy")):
        of_model = slice(first, None, 2)
        res_cycle[of_model] = _grouped(
            lambda *draws: oscillator_cycle_heat_check(*draws[:3], model, *draws[3:]),
            n_max[of_model], *(a[of_model] for a in (omega, omega_prime, lam, beta_h, beta_c)),
            size=lambda n: _stack_size(model, n),
        )
    add("oscillator cycle heats", OSC_RESIDUAL, res_cycle)

    report.elapsed = time.perf_counter() - t0
    return report
