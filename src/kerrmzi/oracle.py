"""Brute-force verification engine in a truncated three-mode Fock space.

Slots are fixed: a = 0 (readout / correlation partner), b = 1 (carries the
sensing arm between the two linear splitters), c = 2 (pump input).  Pure
states are kept as a (C, C, C) amplitude tensor; the residual internal
loss splits one into pure Kraus branches, a (C,)*4 stack.  After the
second splitter a lossy simulate traces out mode c, which nothing later
touches, and goes on with the two-mode density rho_ab, a (C,)*4 tensor; a
density on n modes has ket axes 0..n-1 and bra axes n..2n-1.  simulate is
the state path.  numeric_slope returns the slope, mean and variance of the
readout quadrature from one pass.  Every stage after the Kerr element is a
Gaussian channel that acts linearly on first and second moments, so the
readout is pulled back to an operator on the pure post-Kerr state, where
the slope is one overlap: d/dphi_n of a mean is the mean of a commutator
with n_b^2.  Lossless, the state then runs simulate's tail for the mean
and variance; lossy, those are read at the Kerr stage too.  Nothing
before the Kerr stage depends on the phases, so that prefix is built once
per (alpha, G1, theta1, T, cutoff, budget) and shared, read only, by
simulate, numeric_slope and oracle_qfi.  They enter the pass by one door,
_entering_kerr, which checks the cutoff and budget, sizes the pass by one
account (_pass_bytes) before it is run, and keeps the cached prefixes
within the cap less that account.

Unitaries exponentiate the generator restricted to the truncated space: a
strength times a unit generator diagonalized once per gate kind and cutoff,
the gate Re(v E v^dag) one real matmul on the cached eigenvectors v; the
first squeezer meets vacuum, so the prefix takes one column of it.  Both
generators, a^dag b^dag - a b and b^dag c - b c^dag, are real and
antisymmetric, so the squeezer at theta = 0 and the splitter are real
orthogonal; the squeezer's theta is the diagonal phase D = e^{i theta n_a}
around its real gate, D S0 D^dag.  A principal submatrix of an
antisymmetric generator is again antisymmetric, so these gates are exactly
unitary and truncation shows up as population parked near the cutoff, not
as norm loss; the top Fock level's occupancy is the leakage monitor, with
a norm/trace drift guard for numerical accidents.  A pure state reads
both, and its mode populations, from its amplitudes, without |psi|^2.

Each two-mode gate and the loss channel conserve a label (n_a - n_b,
n_b + n_c, n_ket - n_bra), so they are stored cyclically packed: a real
(C, C, C) stack of C x C matrices, one per row of index pairs with equal
label mod C, applied by one gather, one batched real matmul on the complex
rows seen as float pairs, and one scatter.  The loss channel's Kraus
operators are real too, and contract through the same float view.  Its
K_k lowers ket and bra by the same k, so each packed entry of the loss
superoperator is a single product of two amplitudes from the (C, C) Kraus
table: which entries are nonzero, and where their factors sit, is cached
per cutoff, and a new eta costs one gather and multiply.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .config import InterferometerConfig

MODE_A, MODE_B, MODE_C = 0, 1, 2
_NORM_DRIFT_GUARD = 1e-9
# Entries per gate cache: simulate builds one squeezer gate (nbs2) and one
# splitter; a lossless numeric_slope builds the same two, and a lossy one
# no gate at all, so neither rebuilds a gate simulate built.  The loss
# superoperators (eta_a, eta_b, eta_det) are rebuilt for every eta from
# their structure, cached with one entry per cutoff; the internal losses
# use Kraus operators.  The generator eigenbases take one entry per kind
# and cutoff, so 4 for a cutoff and its double, and the ladder, quadrature
# and binomial tables one per cutoff.  The prefix cache
# (_PREFIXES) holds 2 states, for a cutoff and its double; a warm run
# applies only the stages after the Kerr stage.
_CACHE_SIZE = 5
# Largest density tensor, in GiB, that to_density allocates; also the cap
# on a pure state coherent_product_state builds, and on what a simulate,
# numeric_slope or oracle_qfi pass holds at its peak (_pass_bytes) together
# with the prefix states cached beside it.
_DENSITY_GIB_CAP = 1


class TruncationError(RuntimeError):
    """Truncation budget exceeded; the message names the pipeline stage."""


@dataclass
class FockState:
    """Pure state; ``amplitudes`` has shape (cutoff,)*modes, plus a trailing
    axis for the Kraus branches psi_br of sum_br |psi_br><psi_br|."""

    amplitudes: np.ndarray
    cutoff: int
    modes: int = 3

    @property
    def norm_sq(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)


@dataclass
class DensityOperator:
    """Mixed state; ``tensor`` has shape (cutoff,)*(2 modes)."""

    tensor: np.ndarray
    cutoff: int

    @property
    def modes(self) -> int:
        return self.tensor.ndim // 2

    @property
    def trace(self) -> float:
        return float(self.matrix().trace().real)

    def matrix(self) -> np.ndarray:
        d = self.cutoff**self.modes
        return self.tensor.reshape(d, d)

    def hermiticity_defect(self) -> float:
        m = self.matrix()
        return float(np.max(np.abs(m - m.conj().T)))

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix())[0])


def _refuse_above_cap(cutoff: int, nbytes: int, what: str = "a density operator") -> None:
    gib = nbytes / 2**30
    if gib > _DENSITY_GIB_CAP:
        raise ValueError(f"{what} at cutoff {cutoff} needs {gib:.3g} GiB, "
                         f"above the {_DENSITY_GIB_CAP} GiB cap; lower the cutoff")


def to_density(state: FockState) -> DensityOperator:
    """sum_br |psi_br><psi_br| over the Kraus branches (|psi><psi| when
    pure) as a (cutoff,)*(2 modes) tensor, one matmul P P^dag; raises
    ValueError before allocating when it would exceed _DENSITY_GIB_CAP."""
    c, d = state.cutoff, state.cutoff**state.modes
    _refuse_above_cap(c, 16 * d * d)
    stack = state.amplitudes.reshape(d, -1)
    tensor = (stack @ stack.conj().T).reshape((c,) * (2 * state.modes))
    return DensityOperator(tensor=tensor, cutoff=c)


# --- single-mode building blocks -------------------------------------------


@lru_cache(maxsize=_CACHE_SIZE)
def _annihilator(cutoff: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, cutoff)), 1).astype(complex)


@lru_cache(maxsize=_CACHE_SIZE)
def _quadrature_y(cutoff: int) -> np.ndarray:
    a = _annihilator(cutoff)
    return -1j * (a - a.conj().T)


def _packed_pairs(cutoff: int, sign: int):
    """Index map (i, j) of the cyclic packing: row r holds, in order of j,
    the cutoff pairs of the two-mode space with (i - sign j) mod cutoff = r.
    That is exactly the two label blocks r and r - sign cutoff of a gate
    conserving i - j (sign 1) or i + j (sign -1), so the gate is one
    cutoff x cutoff matrix per row."""
    r, j = np.indices((cutoff, cutoff))
    return (r + sign * j) % cutoff, j


def _packed_kron_sum(terms, pairs) -> np.ndarray:
    """sum of coef * kron(A, B) over the (coef, A, B) terms, restricted to
    each packed row straight from the factors: no full-size matrix."""
    i, j = pairs
    return sum(coef * (a[i[:, :, None], i[:, None, :]] * b[j[:, :, None], j[:, None, :]])
               for coef, a, b in terms)


class _PackedGate(NamedTuple):
    """Real (cutoff, cutoff, cutoff) stack of row matrices S, its index
    map, and an optional diagonal phase d, one per packed pair: the gate
    is d S conj(d) row by row, and plain S when ``phase`` is None."""

    stack: np.ndarray
    pairs: tuple
    phase: np.ndarray | None = None


@lru_cache(maxsize=_CACHE_SIZE)
def _generator_eigenbasis(kind: str, cutoff: int):
    """(w, v, pairs) of the packed unit generator h0 = v diag(w) v^dag of a
    gate kind: i adag bdag - i a b (squeezer, packed by n_a - n_b) or
    i adag b - i a bdag (splitter, by n_b + n_c); its one eigendecomposition
    per cutoff.  v is the C-contiguous complex (cutoff, cutoff, cutoff)
    stack of eigenvectors, one column per eigenvalue."""
    a = _annihilator(cutoff)
    b = a.conj().T if kind == "squeezer" else a
    pairs = _packed_pairs(cutoff, 1 if kind == "squeezer" else -1)
    w, v = np.linalg.eigh(_packed_kron_sum(((1j, a.conj().T, b), (-1j, a, b.conj().T)), pairs))
    return w, v, pairs


def _exp_generator(kind: str, strength: float, cutoff: int) -> _PackedGate:
    """exp(-i strength h0), the exponential of a real antisymmetric matrix:
    Re(v E v^dag), E = diag(e^{-i strength w}), row by row.  Re(p conj(q))
    is the dot product of the (re, im) pairs of p and q, so the gate is one
    real batched matmul of v E and v seen as interleaved float pairs."""
    w, v, pairs = _generator_eigenbasis(kind, cutoff)
    rotated = v * np.exp(-1j * strength * w)[:, None, :]
    return _PackedGate(rotated.view(np.float64) @ v.view(np.float64).swapaxes(1, 2), pairs)


@lru_cache(maxsize=_CACHE_SIZE)
def _squeezer_unitary(gain: float, theta: float, cutoff: int) -> _PackedGate:
    """exp(xi adag bdag - xi* a b), xi = arccosh(G) e^{i theta}, packed by the
    conserved n_a - n_b: D S0 D^dag with the real theta = 0 gate S0 as the
    stack and D = e^{i theta n_a} as its phase (none at theta = 0)."""
    gate = _exp_generator("squeezer", math.acosh(gain), cutoff)
    return gate._replace(phase=np.exp(1j * theta * gate.pairs[0])) if theta else gate


@lru_cache(maxsize=_CACHE_SIZE)
def _beam_splitter_unitary(transmissivity: float, cutoff: int) -> _PackedGate:
    """Unitary sending (b, c) to (sqrt(T) b + sqrt(R) c, sqrt(R) b - sqrt(T) c):
    a mode rotation by arccos(sqrt(T)) followed by a pi phase on the second
    mode.  The zero-phase double pass of the interferometer composes to the
    identity with this sign choice.  Packed by n_b + n_c, which it
    conserves; the pi phase is the sign (-1)^j of each row's pair j."""
    angle = math.acos(min(1.0, max(0.0, math.sqrt(transmissivity))))
    rot = _exp_generator("splitter", angle, cutoff)
    return rot._replace(stack=(-1.0) ** np.arange(cutoff)[:, None] * rot.stack)


@lru_cache(maxsize=_CACHE_SIZE)
def _loss_terms(cutoff: int):
    """C(n, k) as floats and the powers n - k (0 for k > n) and k of eta
    and 1 - eta, each indexed [k, n]; C(n, k) is zero for k > n."""
    k, n = np.indices((cutoff, cutoff))
    binomials = np.array([[float(math.comb(n, k)) for n in range(cutoff)] for k in range(cutoff)])
    return binomials, np.maximum(n - k, 0), k


def _loss_amplitudes(eta: float, cutoff: int) -> np.ndarray:
    """Amplitude table a[k, n] = sqrt(C(n,k) eta^{n-k} (1-eta)^k) of the
    photon-loss Kraus operator K_k from |n> to |n-k>; zero for k > n."""
    binomials, kept, lost = _loss_terms(cutoff)
    return np.sqrt(binomials * eta**kept * (1.0 - eta) ** lost)


def loss_kraus_operators(eta: float, cutoff: int) -> np.ndarray:
    """Photon-loss Kraus family as a real (cutoff,)*3 array: K_k = ops[k]
    maps |n> to |n-k> with amplitude a[k, n] (_loss_amplitudes)."""
    k, n = np.indices((cutoff, cutoff))
    ops = np.zeros((cutoff,) * 3)
    # (n - k) % cutoff parks the zero amplitudes of k > n off the band
    ops[k, (n - k) % cutoff, n] = _loss_amplitudes(eta, cutoff)
    return ops


@lru_cache(maxsize=_CACHE_SIZE)
def _loss_entries(cutoff: int):
    """(pairs, entries, ket, bra): the eta-independent structure of the
    packed loss superoperator.  In packed row r, input pair q sits k levels
    above output pair p on both sides, k = j_q - j_p = i_q - i_p >= 0, at
    the flat stack indices ``entries``; there the entry is a[k, i_q]
    a[k, j_q], whose flat indices into the amplitude table are ``ket`` and
    ``bra``.  Every other entry is zero."""
    pairs = _packed_pairs(cutoff, 1)
    i, j = pairs
    k = j[:, None, :] - j[:, :, None]
    nonzero = (k >= 0) & (i[:, None, :] - i[:, :, None] == k)
    r, _, q = np.nonzero(nonzero)
    row = k[nonzero] * cutoff  # start of row k of the flat table
    return pairs, np.flatnonzero(nonzero), row + i[r, q], row + j[r, q]


def _loss_superoperator(eta: float, cutoff: int) -> _PackedGate:
    """sum_k K_k (x) K_k, the real K_k (x) conj(K_k), acting on the
    (ket, bra) index pair of one mode, packed by n_ket - n_bra, which it
    conserves.  K_k lowers ket and bra by the same k, so each entry is one
    product of amplitudes, a[k, n] a[k, n'] for input pair (n, n'),
    gathered from the table at the cached entries of _loss_entries."""
    pairs, entries, ket, bra = _loss_entries(cutoff)
    amps = _loss_amplitudes(eta, cutoff).ravel()
    stack = np.zeros((cutoff,) * 3)
    stack.ravel()[entries] = amps[ket] * amps[bra]
    return _PackedGate(stack, pairs)


def kraus_completeness_defect(eta: float, cutoff: int) -> float:
    """Max-norm distance of sum K^dag K from the identity on the retained
    subspace (any deviation quantifies truncation of the Kraus family)."""
    ops = loss_kraus_operators(eta, cutoff)
    total = np.tensordot(ops, ops, axes=([0, 1], [0, 1]))
    return float(np.max(np.abs(total - np.eye(cutoff))))


# --- tensor application helpers ---------------------------------------------


def _real_matmul(mats: np.ndarray, work: np.ndarray) -> np.ndarray:
    """mats @ work for real mats and a C-contiguous complex work: one real
    matmul on the float pairs of work (its last axis doubled)."""
    return np.matmul(mats, work.view(np.float64)).view(complex)


def _apply_on_axes(tensor: np.ndarray, gate: _PackedGate, axes) -> np.ndarray:
    """Apply a packed gate to the two tensor axes ``axes``: gather their
    index pairs in packed order, multiply each row block by its matrix in
    one batched real matmul, between conj(d) and d when the gate carries a
    phase, and scatter the result into a new tensor."""
    i, j = gate.pairs
    c = len(i)
    work = np.moveaxis(tensor, axes, (0, 1))[i, j].astype(complex, copy=False)
    shape = tensor.shape
    # Frees an input no caller holds (the ket half of _apply_unitary) before
    # the matmul; rebinding work frees the gathered copy before out exists.
    del tensor
    rest = work.shape[2:]
    work = work.reshape(c, c, -1)
    if gate.phase is not None:
        work *= gate.phase.conj()[:, :, None]
    work = _real_matmul(gate.stack, work)
    if gate.phase is not None:
        work *= gate.phase[:, :, None]
    out = np.empty(shape, dtype=work.dtype)
    np.moveaxis(out, axes, (0, 1))[i, j] = work.reshape((c, c) + rest)
    return out


def _sandwich(tensor: np.ndarray, gate: _PackedGate, ket_axes, bra_axes) -> np.ndarray:
    """U T U^dag for an operator tensor T with the given ket and bra axes;
    the bra side applies conj(U) = conj(d) S d."""
    bra = gate if gate.phase is None else gate._replace(phase=gate.phase.conj())
    return _apply_on_axes(_apply_on_axes(tensor, gate, ket_axes), bra, bra_axes)


def _apply_unitary(state, gate: _PackedGate, modes):
    if isinstance(state, FockState):
        amps = _apply_on_axes(state.amplitudes, gate, modes)
        return FockState(amplitudes=amps, cutoff=state.cutoff, modes=state.modes)
    tensor = _sandwich(state.tensor, gate, modes, [m + state.modes for m in modes])
    return DensityOperator(tensor=tensor, cutoff=state.cutoff)


def _joint_populations(rho: DensityOperator) -> np.ndarray:
    """Joint photon-number distribution of a density, its diagonal."""
    return rho.matrix().diagonal().real.reshape((rho.cutoff,) * rho.modes)


def mode_populations(state, mode: int) -> np.ndarray:
    """Photon-number distribution of one mode (diagonal of its reduced
    state), summed from the squared float parts of a pure state's amplitudes
    or a density's diagonal without forming the reduced state or |psi|^2;
    a trailing axis of Kraus branches is summed as well."""
    if isinstance(state, FockState):
        parts = np.ascontiguousarray(state.amplitudes, dtype=complex)[..., None].view(np.float64)
        return np.einsum(parts, range(parts.ndim), parts, range(parts.ndim), [mode])
    joint = _joint_populations(state)
    return joint.sum(axis=tuple(m for m in range(joint.ndim) if m != mode))


def reduced_density(state, mode: int) -> np.ndarray:
    """(C, C) reduced density matrix of one mode; a trailing axis of Kraus
    branches is traced out as well."""
    if isinstance(state, FockState):
        psi = np.moveaxis(state.amplitudes, mode, 0).reshape(state.cutoff, -1)
        return psi @ psi.conj().T
    ket = "abc"[: state.modes]
    bra = ket[:mode] + "z" + ket[mode + 1 :]
    return np.einsum(f"{ket}{bra}->{ket[mode]}z", state.tensor)


def mean_photon(state, mode: int) -> float:
    pops = mode_populations(state, mode)
    return float(np.dot(pops, np.arange(len(pops))))


def mean_amplitude(state, mode: int) -> complex:
    """<a_mode> of the state."""
    rho = reduced_density(state, mode)
    a = _annihilator(rho.shape[0])
    return complex(np.trace(rho @ a))


def quadrature_stats(state, mode: int):
    """Mean and variance of Y = -i (a - adag) on one mode; the vacuum
    variance is 1 in this convention."""
    rho = reduced_density(state, mode)
    y = _quadrature_y(rho.shape[0])
    mean = float(np.trace(rho @ y).real)
    second = float(np.trace(rho @ y @ y).real)
    return mean, second - mean**2


# --- state preparation and gates --------------------------------------------


def coherent_product_state(amplitudes, cutoff: int, budget: float = 1e-8) -> FockState:
    """Product of coherent states, one complex amplitude per slot; the
    state has as many modes as there are slots.  Raises ValueError before
    allocating a state above _DENSITY_GIB_CAP."""
    if cutoff < 2:
        raise ValueError(f"cutoff must be >= 2 (got {cutoff})")
    n = np.arange(cutoff)
    logfact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, cutoff)))))
    vecs = []
    for alpha in amplitudes:
        if alpha == 0:
            vec = np.zeros(cutoff, dtype=complex)
            vec[0] = 1.0
        else:
            vec = np.exp(-abs(alpha) ** 2 / 2.0 + n * np.log(complex(alpha)) - logfact / 2.0)
        # the unnormalized vector lacks exactly the weight clipped at the cutoff
        tail = 1.0 - np.vdot(vec, vec).real
        if tail > budget:
            raise TruncationError(
                f"prepare: coherent amplitude |alpha|={abs(alpha):.4g} needs "
                f"more than {cutoff} levels (clipped weight {tail:.3e} > "
                f"budget {budget:.3e})"
            )
        vecs.append(vec / np.linalg.norm(vec))
    _refuse_above_cap(cutoff, 16 * cutoff**len(amplitudes), "a pure state")
    # outer product, one einsum axis per slot
    amps = np.einsum(*[x for m, vec in enumerate(vecs) for x in (vec, [m])], range(len(vecs)))
    return FockState(amplitudes=amps, cutoff=cutoff, modes=len(vecs))


def prepare_input(
    config: InterferometerConfig, cutoff: int, budget: float = 1e-8
) -> FockState:
    """Vacuum in slots a and b, the coherent pump in slot c."""
    alpha = config.coherent.amplitude
    return coherent_product_state([0.0, 0.0, alpha], cutoff, budget)


def apply_two_mode_squeezer(state, gain: float, theta: float, mode_i: int, mode_j: int):
    """Two-mode squeezer sending a -> G a + g e^{i theta} bdag on the pair
    (mode_i, mode_j)."""
    if gain < 1.0:
        raise ValueError(f"squeezer gain must be >= 1 (got {gain})")
    u = _squeezer_unitary(gain, theta, state.cutoff)
    return _apply_unitary(state, u, (mode_i, mode_j))


def apply_beam_splitter(state, transmissivity: float, mode_i: int, mode_j: int):
    """Beam splitter with outputs (sqrt(T) i + sqrt(R) j, sqrt(R) i - sqrt(T) j);
    photon-number conserving on the pair."""
    if not 0.0 <= transmissivity <= 1.0:
        raise ValueError(f"transmissivity outside [0,1] (got {transmissivity})")
    u = _beam_splitter_unitary(transmissivity, state.cutoff)
    return _apply_unitary(state, u, (mode_i, mode_j))


def apply_kerr(state: FockState, phi_l: float, phi_n: float, mode: int) -> FockState:
    """Diagonal phase e^{i(phi_l n + phi_n n^2)} on one mode of a pure state
    or branch stack, of any mode count; exactly norm preserving.  The
    pipeline's Kerr stage always meets a pure state, so a density is
    refused."""
    if not isinstance(state, FockState):
        raise TypeError("apply_kerr acts on a pure FockState; the Kerr stage meets no density")
    c = state.cutoff
    n = np.arange(c)
    phases = np.exp(1j * (phi_l * n + phi_n * n.astype(float) ** 2))
    shape = [1] * state.amplitudes.ndim
    shape[mode] = c
    amps = state.amplitudes * phases.reshape(shape)
    return FockState(amplitudes=amps, cutoff=c, modes=state.modes)


def apply_loss(rho: DensityOperator, eta: float, mode: int) -> DensityOperator:
    """Photon-loss channel of transmission eta on one mode of a density
    operator; trace preserving up to truncation, identity at eta = 1."""
    if not isinstance(rho, DensityOperator):
        raise TypeError("apply_loss acts on a DensityOperator; promote with to_density")
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta outside [0,1] (got {eta})")
    if eta == 1.0:
        return rho
    superop = _loss_superoperator(eta, rho.cutoff)
    tensor = _apply_on_axes(rho.tensor, superop, (mode, mode + rho.modes))
    return DensityOperator(tensor=tensor, cutoff=rho.cutoff)


def _kraus_branches(state: FockState, eta: float, mode: int) -> FockState:
    """Photon loss of transmission eta on one mode of a pure three-mode
    state, kept pure: the branches K_k psi along a trailing axis k."""
    c = state.cutoff
    # rows (n', k), batched over the modes before this one
    kraus = loss_kraus_operators(eta, c).swapaxes(0, 1).reshape(c * c, c)
    psi = np.ascontiguousarray(state.amplitudes, dtype=complex).reshape(c**mode, c, -1)
    amps = _real_matmul(kraus, psi).reshape(c**mode, c, c, -1)
    return FockState(amplitudes=np.moveaxis(amps, 2, 3).reshape((c,) * 4), cutoff=c)


# --- full pipeline -----------------------------------------------------------


def _norm(state) -> float:
    """Norm of a pure state or branch stack; trace of a density, summed
    from its diagonal."""
    return state.norm_sq if isinstance(state, FockState) else _joint_populations(state).sum()


def _top_weights(state) -> list:
    """Weight each mode holds on its top Fock level: for a pure state or
    branch stack the vdot of each top slice of the amplitudes, with no
    |psi|^2 tensor; for a density the sums of its diagonal's slices."""
    if isinstance(state, FockState):
        tops = (state.amplitudes.take(-1, axis=m) for m in range(state.modes))
        return [np.vdot(top, top).real for top in tops]
    joint = _joint_populations(state)
    return [joint.take(-1, axis=m).sum() for m in range(state.modes)]


def _checked_stage(state, stage: str, budget: float, apply, *args):
    """apply(state, *args), a unitary stage, followed by the truncation
    check of the state it returns: the norm or trace must not drift across
    it, and no mode may hold more than the budget on its top Fock level
    after it.  The caller rebinds its one reference to the result, so each
    old tensor is freed before the next stage builds another."""
    before = _norm(state)
    state = apply(state, *args)
    drift = abs(_norm(state) - before)
    if drift > _NORM_DRIFT_GUARD:
        raise TruncationError(f"{stage}: norm/trace drifted by {drift:.3e}")
    worst = max(_top_weights(state))
    if worst > budget:
        raise TruncationError(
            f"{stage}: top-Fock-level occupancy {worst:.3e} exceeds "
            f"truncation budget {budget:.3e}; increase the cutoff"
        )
    return state


def _pass_bytes(cutoff: int, lossy: bool) -> int:
    """The memory account of a simulate pass, or of a numeric_slope or
    oracle_qfi pass with lossy False: the bytes it holds at its peak beside
    the cached prefixes, which _entering_kerr, the one entry of every pass,
    refuses above _DENSITY_GIB_CAP before it builds anything.  Lossless,
    that is four (cutoff,)*3 states up to nbs2: a gate holds three (state,
    gather and matmul), and the fourth covers numpy's ufunc iteration
    buffers, up to one such tensor at desk cutoffs.  A lossy numeric_slope
    stops at the Kerr stage and holds no more: psi and the work tensors of
    its overlap and moment readout.  A lossy simulate holds four
    (cutoff,)*4 tensors: at bs2 on the one Kraus axis of the branch stack,
    at the fold on P and P^dag beside rho_ab, and in the tail on rho_ab, a
    _sandwich's held ket half, its gather and its matmul.  Under the 1 GiB
    cap a lossless pass, every numeric_slope and oracle_qfi fit up to
    cutoff 256 (237 with the prefix cached), and a lossy simulate up to 64."""
    return 16 * 4 * cutoff ** (4 if lossy else 3)


# Read-only prefix states by key, oldest first: at most two, for a cutoff
# and its double.
_PREFIXES: OrderedDict = OrderedDict()


def _squeeze_vacuum(pump: FockState, gain: float, theta: float) -> FockState:
    """The first squeezer on vacuum a and b beside the one-mode pump: vacuum
    is pair 0 of packed row 0 (n_a = n_b), so psi[n, n, :] = e^{i theta n}
    s_n pump with s = Re(v0 E v0^dag)[:, 0], O(cutoff^2), no gate stack."""
    c, n = pump.cutoff, np.arange(pump.cutoff)
    w, v, _ = _generator_eigenbasis("squeezer", c)
    rotated = v[0] * np.exp(-1j * math.acosh(gain) * w[0])
    column = np.exp(1j * theta * n) * (rotated.view(np.float64) @ v[0, 0].view(np.float64))
    amps = np.zeros((c,) * 3, dtype=complex)
    amps[n, n] = column[:, None] * pump.amplitudes
    return FockState(amplitudes=amps, cutoff=c)


def _entering_kerr(config: InterferometerConfig, cutoff: int, budget: float, lossy: bool = False):
    """The one way into the Fock pass of simulate, numeric_slope and
    oracle_qfi: prepare, first squeezer on (a, b), first splitter on (b, c),
    the phase-independent prefix, checked per stage; prepare makes only the
    pump, the drift reference of _squeeze_vacuum.  Before the cache is read
    it refuses a cutoff that is not an integer >= 2, a budget outside
    (0, 1] and a pass whose account (_pass_bytes, lossy or not) exceeds
    _DENSITY_GIB_CAP.  The read-only state is cached on the parameters the
    prefix reads, in _PREFIXES within the cap less the account: older states
    go first to make room for this one, and one that does not fit is
    returned without being kept.  A build that raises keeps nothing."""
    if not isinstance(cutoff, (int, np.integer)) or cutoff < 2:
        raise ValueError(f"cutoff must be an integer >= 2 (got {cutoff!r})")
    if not 0.0 < budget <= 1.0:
        raise ValueError(f"truncation budget must lie in (0, 1] (got {budget!r})")
    account = _pass_bytes(cutoff, lossy)
    _refuse_above_cap(cutoff, account, "a run's branch tensors")
    nbytes, room = 16 * cutoff**3, _DENSITY_GIB_CAP * 2**30 - account
    key = (config.coherent.amplitude, config.nbs1.gain, config.nbs1.phase,
           config.splitter.transmissivity, cutoff, budget)
    state = _PREFIXES.pop(key, None)
    while _PREFIXES and (
        len(_PREFIXES) >= 2
        or sum(s.amplitudes.nbytes for s in _PREFIXES.values()) + nbytes > room
    ):
        _PREFIXES.popitem(last=False)
    if state is None:
        state = coherent_product_state([config.coherent.amplitude], cutoff, budget)
        state = _checked_stage(
            state, "nbs1", budget, _squeeze_vacuum, config.nbs1.gain, config.nbs1.phase,
        )
        state = _checked_stage(
            state, "bs1", budget, apply_beam_splitter,
            config.splitter.transmissivity, MODE_B, MODE_C,
        )
        state.amplitudes.flags.writeable = False
    if nbytes <= room:
        _PREFIXES[key] = state
    return state


def _readout_pair(config, cutoff: int, budget: float, u=None):
    """(state, slope): the readout state of the Fock pass of simulate, and
    of a lossless numeric_slope, which alone passes the pulled-back readout
    u and gets the slope read on the Kerr output (_kerr_slope) before the
    tail replaces it; slope is None without u.  Pure losses compose, so the
    internal losses (eta_d on b, eta_c on c) are L_m on both modes,
    m = max(eta_c, eta_d), after the residual min/m on the lower-eta mode.
    L_m on both ports commutes with bs2 and vanishes on c under Tr_c, which
    nothing after bs2 reads: only the residual splits the state into Kraus
    branches P (none when eta_c = eta_d), and L_m joins eta_b on b.  Lossy,
    c joins the branch axis of P after bs2: the state becomes
    rho_ab = P P^dag, and the later stages act on it."""
    loss = config.loss
    lossy = not loss.is_lossless()
    state = _entering_kerr(config, cutoff, budget, lossy)
    state = apply_kerr(state, config.phase.linear, config.phase.nonlinear, MODE_B)
    slope = None if u is None else _kerr_slope(state.amplitudes, u)
    common = max(loss.eta_c, loss.eta_d)
    if loss.eta_c != loss.eta_d:
        lower = MODE_B if loss.eta_d < loss.eta_c else MODE_C
        state = _kraus_branches(state, min(loss.eta_c, loss.eta_d) / common, lower)
    state = _checked_stage(
        state, "bs2", budget, apply_beam_splitter,
        config.splitter.transmissivity, MODE_B, MODE_C,
    )
    if lossy:
        state = to_density(FockState(state.amplitudes.reshape(cutoff, cutoff, -1), cutoff, modes=2))
        state = apply_loss(state, loss.eta_a, MODE_A)
        state = apply_loss(state, loss.eta_b * common, MODE_B)
    state = _checked_stage(
        state, "nbs2", budget, apply_two_mode_squeezer,
        config.nbs2.gain, config.nbs2.phase, MODE_A, MODE_B,
    )
    if lossy:
        state = apply_loss(state, loss.eta_det, MODE_A)
    return state, slope


def simulate(config: InterferometerConfig, cutoff: int = 15, budget: float = 1e-8):
    """Run the full interferometer.

    Stage order: prepare, first squeezer on (a, b), first splitter on
    (b, c), Kerr phase on b, internal losses (eta_d on b, eta_c on c),
    second splitter on (b, c), external losses (eta_a on a, eta_b on b),
    readout squeezer on (a, b), detection loss (eta_det on a).  Lossless
    configurations stay pure and return the three-mode state.  Nothing
    after the second splitter touches mode c, so a lossy run returns the
    (a, b) density Tr_c(P P^dag) = P' P'^dag, with c one more branch index
    of P', the Kraus branches of one residual internal loss (_readout_pair).
    A lossy pass holds (cutoff,)*4 tensors and runs up to cutoff 64; tensors
    above _DENSITY_GIB_CAP raise ValueError before they are allocated.

    Raises TruncationError naming the stage (prepare, nbs1, bs1, bs2 or nbs2)
    whose top-level occupancy exceeds the budget; from nbs2 on, mode c
    keeps the occupancy bs2 checked.
    """
    return _readout_pair(config, cutoff, budget)[0]


class SlopeEstimate(NamedTuple):
    """d<Y_a>/dphi_n, <Y_a> and Var(Y_a) at the readout, from one pass."""

    value: float
    mean: float
    variance: float


# Y_a = X + X^dag with X = -i a
_READOUT = (-1j, 0j, 0j)


def _readout_pullback(config):
    """(u, noise): Y_a at the detector is X + X^dag, X = sum_k u_k a_k on
    the modes leaving the Kerr stage, plus independent vacuum noise of
    variance ``noise``.  Every stage after the Kerr element is a Gaussian
    channel, so u is read back from the detector through eta_det, nbs2,
    eta_b, eta_a, bs2, eta_c and eta_d: a gate a -> A a + B a^dag maps u
    to A^T u + B^dag conj(u), and a loss of transmission eta on mode m
    scales u_m by sqrt(eta) and adds (1 - eta) |u_m|^2 of vacuum noise."""
    loss = config.loss
    u = list(_READOUT)
    noise = 0.0

    def lose(eta, m):
        nonlocal noise
        noise += (1.0 - eta) * abs(u[m]) ** 2
        u[m] *= math.sqrt(eta)

    lose(loss.eta_det, MODE_A)
    # nbs2: a -> G a + g e^{i theta} b^dag, b -> G b + g e^{i theta} a^dag
    gain, theta = config.nbs2.gain, config.nbs2.phase
    z = math.sqrt(gain * gain - 1.0) * complex(math.cos(theta), -math.sin(theta))
    a, b = u[MODE_A], u[MODE_B]
    u[MODE_A], u[MODE_B] = gain * a + z * b.conjugate(), gain * b + z * a.conjugate()
    lose(loss.eta_b, MODE_B)
    lose(loss.eta_a, MODE_A)
    # bs2: (b, c) -> (sqrt(T) b + sqrt(R) c, sqrt(R) b - sqrt(T) c), A symmetric
    st, sr = math.sqrt(config.splitter.transmissivity), math.sqrt(config.splitter.reflectivity)
    b, c = u[MODE_B], u[MODE_C]
    u[MODE_B], u[MODE_C] = st * b + sr * c, sr * b - st * c
    lose(loss.eta_c, MODE_C)
    lose(loss.eta_d, MODE_B)
    return u, noise


def _apply_readout(psi: np.ndarray, u) -> np.ndarray:
    """(X + X^dag) psi for X = sum_k u_k a_k on a pure three-mode tensor:
    for each mode with u_k != 0, a weighted shift down its axis (u_k a_k),
    the first written straight into the new tensor, and one up
    (conj(u_k) a_k^dag); zeros when u is."""
    roots = np.sqrt(np.arange(1.0, psi.shape[0]))
    out = None
    for k, uk in enumerate(u):
        if uk:
            low = (slice(None),) * k + (slice(None, -1),)
            high = (slice(None),) * k + (slice(1, None),)
            weights = roots.reshape((-1,) + (1,) * (2 - k))
            if out is None:
                out = np.zeros_like(psi)
                np.multiply(uk * weights, psi[high], out=out[low])
            else:
                out[low] += (uk * weights) * psi[high]
            out[high] += (uk.conjugate() * weights) * psi[low]
    return np.zeros_like(psi) if out is None else out


# Elements per ufunc iteration buffer in the moment readout.  numpy gives
# each broadcast or strided operand a buffer of up to 8192 elements, a
# whole cutoff^3 tensor at desk cutoffs; the readout never casts, so small
# buffers keep its peak to the tensors it names.
_READOUT_BUFSIZE = 128


def _kerr_slope(psi: np.ndarray, u) -> float:
    """d<Y>/dphi_n for Y = X + X^dag, X = sum_k u_k a_k, on the pure
    post-Kerr state psi.  The phi_n-tangent is i n_b^2 psi, so the slope is
    i<[Y, n_b^2]>; modes a and c commute with n_b^2, and
    [a_b, n_b^2] = (2 n_b + 1) a_b holds exactly in the truncated space, so
    it is -2 Im(u_b M) with M = <(2 n_b + 1) a_b>, one overlap of psi with
    itself shifted down mode b."""
    n = np.arange(psi.shape[MODE_B] - 1.0)
    overlaps = np.einsum("anc,anc->n", psi[:, :-1].conj(), psi[:, 1:])
    return float(-2.0 * (u[MODE_B] * (overlaps @ ((2.0 * n + 1.0) * np.sqrt(n + 1.0)))).imag)


def _moment_readout(psi: np.ndarray, u, noise: float):
    """(mean, variance) of Y = X + X^dag plus vacuum noise of variance
    ``noise``, X = sum_k u_k a_k, on the pure state psi.  With y = Y psi,
    <Y> = <psi|y>, and the variance is 2 Re<X^2> + 2 <X^dag X> +
    sum_k |u_k|^2 - <Y>^2 + noise, which uses [X, X^dag] = sum_k |u_k|^2 of
    the untruncated modes; the truncated a a^dag lacks cutoff on the top
    level, so that is |y|^2 + cutoff sum_k |u_k|^2 p_k - <Y>^2 + noise, with
    p_k the top-level weight of mode k.  Beside psi it holds y and one
    temporary."""
    old = np.setbufsize(_READOUT_BUFSIZE)
    try:
        y = _apply_readout(psi, u)
    finally:
        np.setbufsize(old)
    mean = np.vdot(psi, y).real
    second = np.vdot(y, y).real
    for k, uk in enumerate(u):
        if uk:
            top = psi.take(-1, axis=k)
            second += psi.shape[0] * abs(uk) ** 2 * np.vdot(top, top).real
    return float(mean), float(second - mean * mean + noise)


def numeric_slope(
    config: InterferometerConfig, cutoff: int = 15, budget: float = 1e-8
) -> SlopeEstimate:
    """Slope of <Y_a> with respect to the nonlinear phase at its configured
    value, exact within the truncated space, and the mean and variance of
    Y_a at the readout.

    There is no step size and no tangent state: Y_a is pulled back through
    the Gaussian tail (_readout_pullback) to the pure post-Kerr state psi,
    whose phi_n-derivative is i n_b^2 psi, and the slope is one O(cutoff^3)
    overlap there (_kerr_slope).  Lossless, psi then runs simulate's tail,
    with its truncation checks and messages, for the mean and variance of
    the readout state.  Lossy, they are read on psi too, with no Kraus
    branch and no density, and nothing after the Kerr stage is truncated.
    Both passes are sized like a lossless simulate.
    """
    u, noise = _readout_pullback(config)
    if config.loss.is_lossless():
        state, slope = _readout_pair(config, cutoff, budget, u)
        return SlopeEstimate(slope, *_moment_readout(state.amplitudes, _READOUT, 0.0))
    psi = _entering_kerr(config, cutoff, budget)
    psi = apply_kerr(psi, config.phase.linear, config.phase.nonlinear, MODE_B).amplitudes
    return SlopeEstimate(_kerr_slope(psi, u), *_moment_readout(psi, u, noise))


def oracle_qfi(
    config: InterferometerConfig, cutoff: int = 15, budget: float = 1e-8
) -> float:
    """Fisher information 4 (<n^4> - <n^2>^2) of the sensing-arm photon
    number, taken on the state entering the Kerr element.

    Only defined here for lossless configurations (the pure-state
    variance form); lossy configurations are rejected.  Sized and refused
    like a lossless pass (_entering_kerr).
    """
    if not config.loss.is_lossless():
        raise ValueError(
            "oracle_qfi supports lossless configurations only "
            "(mixed-state Fisher information is out of scope)"
        )
    state = _entering_kerr(config, cutoff, budget)
    pops = mode_populations(state, MODE_B)
    n = np.arange(state.cutoff, dtype=float)
    m2 = float(np.dot(pops, n**2))
    m4 = float(np.dot(pops, n**4))
    return 4.0 * (m4 - m2 * m2)
