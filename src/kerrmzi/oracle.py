"""Brute-force verification engine in a truncated three-mode Fock space.

Slots are fixed: a = 0 (readout / correlation partner), b = 1 (carries the
sensing arm between the two linear splitters), c = 2 (pump input).  Pure
states are kept as a (C, C, C) amplitude tensor; the internal losses split
one into pure Kraus branches, a (C, C, C, branches) stack.  After the
second splitter a lossy run traces out mode c, which nothing later touches,
and goes on with the two-mode density rho_ab, a (C,)*4 tensor; a density
on n modes has ket axes 0..n-1 and bra axes n..2n-1.  simulate and
numeric_slope share one forward pass: from the Kerr stage on, the
derivative of the state with respect to the nonlinear phase rides beside
it through every later stage, each linear in the state; numeric_slope
also returns the state, so one pass yields the slope and the variance.
Nothing before the Kerr stage depends on the phases, so that prefix is
built once per (alpha, G1, theta1, T, cutoff, budget) and shared, read
only, by simulate, numeric_slope and oracle_qfi.  One account,
_pass_bytes, sizes a pass before it is run, and the cached prefixes keep
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
operators are real too, and contract through the same float view.
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
# Entries per gate and loss cache: simulate builds one squeezer gate (nbs2),
# one splitter and up to three loss superoperators (eta_a, eta_b, eta_det;
# the internal losses use uncached Kraus operators), so numeric_slope never
# rebuilds a gate; the generator eigenbases take one entry per kind and
# cutoff, so 4 for a cutoff and its double.  The prefix cache (_PREFIXES)
# holds 2 states, for a cutoff and its double; a warm run applies only the
# gates after the Kerr stage.
_CACHE_SIZE = 5
# Largest density tensor, in GiB, that to_density allocates; also the cap
# on a pure state coherent_product_state builds, and on what a simulate or
# numeric_slope pass holds at its peak (_pass_bytes) together with the
# prefix states cached beside it.
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


def to_density(state: FockState, adjoint: np.ndarray | None = None) -> DensityOperator:
    """sum_br |psi_br><psi_br| over the Kraus branches (|psi><psi| when
    pure) as a (cutoff,)*(2 modes) tensor, one matmul P P^dag, with the
    caller's P^dag as ``adjoint`` when it holds one; raises ValueError
    before allocating when it would exceed _DENSITY_GIB_CAP."""
    c, d = state.cutoff, state.cutoff**state.modes
    _refuse_above_cap(c, 16 * d * d)
    stack = state.amplitudes.reshape(d, -1)
    adjoint = stack.conj().T if adjoint is None else adjoint
    tensor = (stack @ adjoint).reshape((c,) * (2 * state.modes))
    return DensityOperator(tensor=tensor, cutoff=c)


# --- single-mode building blocks -------------------------------------------


@lru_cache(maxsize=None)
def _annihilator(cutoff: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, cutoff)), 1).astype(complex)


@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
def _binomials(cutoff: int) -> np.ndarray:
    """C(n, k) as floats, indexed [k, n]; zero for k > n."""
    return np.array([[float(math.comb(n, k)) for n in range(cutoff)] for k in range(cutoff)])


def loss_kraus_operators(eta: float, cutoff: int) -> np.ndarray:
    """Photon-loss Kraus family as a real (cutoff,)*3 array: K_k = ops[k]
    maps |n> to |n-k> with amplitude sqrt(C(n,k) eta^{n-k} (1-eta)^k)."""
    k, n = np.indices((cutoff, cutoff))
    amps = np.sqrt(_binomials(cutoff) * eta ** np.maximum(n - k, 0) * (1.0 - eta) ** k)
    ops = np.zeros((cutoff,) * 3)
    # (n - k) % cutoff parks the zero amplitudes of k > n off the band
    ops[k, (n - k) % cutoff, n] = amps
    return ops


@lru_cache(maxsize=_CACHE_SIZE)
def _loss_superoperator(eta: float, cutoff: int) -> _PackedGate:
    """sum_k K_k (x) K_k, the real K_k (x) conj(K_k), acting on the
    (ket, bra) index pair of one mode, packed by n_ket - n_bra, which it
    conserves."""
    pairs = _packed_pairs(cutoff, 1)
    terms = ((1, k, k) for k in loss_kraus_operators(eta, cutoff))
    return _PackedGate(_packed_kron_sum(terms, pairs), pairs)


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
    """Photon loss on one mode of a pure state or branch stack, kept pure:
    each branch psi_br becomes the branches K_k psi_br, the trailing branch
    axis running over (k, br); identity at eta = 1."""
    if eta == 1.0:
        return state
    c = state.cutoff
    # rows (n', k), batched over the modes before this one, so k lands just
    # ahead of the later modes and the old branch axis
    kraus = loss_kraus_operators(eta, c).swapaxes(0, 1).reshape(c * c, c)
    psi = np.ascontiguousarray(state.amplitudes, dtype=complex).reshape(c**mode, c, -1)
    amps = _real_matmul(kraus, psi).reshape((c,) * (mode + 2) + state.amplitudes.shape[mode + 1 :])
    return FockState(amplitudes=np.moveaxis(amps, mode + 1, 3).reshape(c, c, c, -1), cutoff=c)


# --- full pipeline -----------------------------------------------------------


def _linear_stage(pair, apply, *args) -> None:
    """Apply one stage, linear in the state, to a [state, tangent] pair in
    place, so each old tensor is released before the next one is built."""
    pair[0] = apply(pair[0], *args)
    if pair[1] is not None:
        pair[1] = apply(pair[1], *args)


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


def _checked_stage(pair, stage: str, budget: float, apply, *args) -> None:
    """A unitary stage followed by the truncation check of its state: the
    norm or trace must not drift across it, and no mode may hold more than
    the budget on its top Fock level after it."""
    before = _norm(pair[0])
    _linear_stage(pair, apply, *args)
    drift = abs(_norm(pair[0]) - before)
    if drift > _NORM_DRIFT_GUARD:
        raise TruncationError(f"{stage}: norm/trace drifted by {drift:.3e}")
    worst = max(_top_weights(pair[0]))
    if worst > budget:
        raise TruncationError(
            f"{stage}: top-Fock-level occupancy {worst:.3e} exceeds "
            f"truncation budget {budget:.3e}; increase the cutoff"
        )


def _pass_bytes(cutoff: int, branches: int, lossy: bool) -> int:
    """The memory account of a simulate or numeric_slope pass: the bytes it
    holds at its peak beside the cached prefixes.  Up to bs2 that is four
    branch stacks of 16 cutoff^3 branches bytes (state, tangent, and a
    gate's gather and matmul).  A lossy pass then peaks at the fold, on the
    stacks P, P^dag and dP beside rho_ab and X, and in the tail, on rho_ab,
    X, a _sandwich's held ket half, its gather and its matmul: five
    (cutoff,)*4 tensors, which bound the fold too.  Under the 1 GiB cap a
    lossless pass fits up to cutoff 256 (237 with its prefix cached), one
    with external or one internal loss up to 60, and one with both internal
    losses up to 27."""
    return 16 * max(4 * cutoff**3 * branches, 5 * cutoff**4 if lossy else 0)


# Read-only prefix states by key, oldest first: at most two, for a cutoff
# and its double.
_PREFIXES: OrderedDict = OrderedDict()


def _cached_prefix(key, nbytes: int, account: int, build) -> FockState:
    """The prefix state of key, from _PREFIXES or from build(), of nbytes
    bytes.  The cache keeps within the cap less the account of the pass
    (_pass_bytes), reading the bytes it holds from its states: older states
    go first to make room for this one, and one that does not fit is
    returned without being kept.  A build that raises keeps nothing, so it
    raises again on the next call."""
    room = _DENSITY_GIB_CAP * 2**30 - account
    state = _PREFIXES.pop(key, None)
    while _PREFIXES and (
        len(_PREFIXES) >= 2
        or sum(s.amplitudes.nbytes for s in _PREFIXES.values()) + nbytes > room
    ):
        _PREFIXES.popitem(last=False)
    if state is None:
        state = build()
        state.amplitudes.flags.writeable = False
    if nbytes <= room:
        _PREFIXES[key] = state
    return state


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


def _entering_kerr(config: InterferometerConfig, cutoff: int, budget: float, account: int):
    """Prepare, first squeezer on (a, b), first splitter on (b, c): the
    phase-independent prefix of the interferometer, checked per stage;
    prepare makes only the pump, the drift reference of _squeeze_vacuum.
    The read-only state is cached on the parameters the prefix reads, within
    the cap less the account of the pass (see _cached_prefix); the
    pure-state cap is checked on every call, before the cache is read."""
    nbytes = 16 * cutoff**3
    _refuse_above_cap(cutoff, nbytes, "a pure state")

    def build():
        pair = [coherent_product_state([config.coherent.amplitude], cutoff, budget), None]
        _checked_stage(pair, "nbs1", budget, _squeeze_vacuum, config.nbs1.gain, config.nbs1.phase)
        _checked_stage(
            pair, "bs1", budget, apply_beam_splitter,
            config.splitter.transmissivity, MODE_B, MODE_C,
        )
        return pair[0]

    key = (
        config.coherent.amplitude, config.nbs1.gain, config.nbs1.phase,
        config.splitter.transmissivity, cutoff, budget,
    )
    return _cached_prefix(key, nbytes, account, build)


def _readout_pair(config, cutoff: int, budget: float, tangent: bool):
    """[state, tangent] at the readout, the one forward pass of simulate and
    numeric_slope.  The tangent, d/dphi_n of the state or None unless asked
    for, starts at the Kerr stage; every later stage is linear in the
    state.  The internal losses (eta_d on b, eta_c on c) split both into
    Kraus branches P, pure up to the second splitter.  Lossless, both stay
    pure three-mode states.  Lossy, nothing after the second splitter
    touches mode c, so it joins the branch axis of P there: the state
    becomes rho_ab = P P^dag and the tangent X = dP P^dag, and the later
    stages act on both.  They are linear and preserve Hermiticity, so X
    carries half of d rho_ab = X + X^dag.  Refuses a pass whose account
    (_pass_bytes) exceeds _DENSITY_GIB_CAP before anything is built; the
    cached prefixes keep within the cap less that account."""
    loss = config.loss
    lossy = not loss.is_lossless()
    branches = (cutoff if loss.eta_d < 1.0 else 1) * (cutoff if loss.eta_c < 1.0 else 1)
    account = _pass_bytes(cutoff, branches, lossy)
    _refuse_above_cap(cutoff, account, "a run's branch tensors")
    pair = [_entering_kerr(config, cutoff, budget, account), None]
    _linear_stage(pair, apply_kerr, config.phase.linear, config.phase.nonlinear, MODE_B)
    if tangent:  # d/dphi_n of the Kerr output is i n_b^2 psi
        n2_b = np.arange(cutoff, dtype=float)[:, None] ** 2
        pair[1] = FockState(1j * n2_b * pair[0].amplitudes, cutoff)
    _linear_stage(pair, _kraus_branches, loss.eta_d, MODE_B)
    _linear_stage(pair, _kraus_branches, loss.eta_c, MODE_C)
    _checked_stage(
        pair, "bs2", budget, apply_beam_splitter,
        config.splitter.transmissivity, MODE_B, MODE_C,
    )
    if lossy:
        p = pair[0].amplitudes.reshape(cutoff**2, -1)
        p_dag = p.conj().T
        pair[0] = to_density(FockState(p.reshape(cutoff, cutoff, -1), cutoff, modes=2), p_dag)
        if tangent:
            x = pair[1].amplitudes.reshape(cutoff**2, -1) @ p_dag
            pair[1] = DensityOperator(x.reshape((cutoff,) * 4), cutoff)
        del p, p_dag  # frees the branch stack, which the view held, and its adjoint
        _linear_stage(pair, apply_loss, loss.eta_a, MODE_A)
        _linear_stage(pair, apply_loss, loss.eta_b, MODE_B)
    _checked_stage(
        pair, "nbs2", budget, apply_two_mode_squeezer,
        config.nbs2.gain, config.nbs2.phase, MODE_A, MODE_B,
    )
    if lossy:
        _linear_stage(pair, apply_loss, loss.eta_det, MODE_A)
    return pair


def simulate(config: InterferometerConfig, cutoff: int = 15, budget: float = 1e-8):
    """Run the full interferometer.

    Stage order: prepare, first squeezer on (a, b), first splitter on
    (b, c), Kerr phase on b, internal losses (eta_d on b, eta_c on c),
    second splitter on (b, c), external losses (eta_a on a, eta_b on b),
    readout squeezer on (a, b), detection loss (eta_det on a).  Lossless
    configurations stay pure and return the three-mode state.  Internal
    losses split the state into Kraus branches P.  Nothing after the second
    splitter touches mode c, so a lossy run returns the (a, b) density
    Tr_c(P P^dag) = P' P'^dag, with c one more branch index of P'.  Tensors
    above _DENSITY_GIB_CAP raise ValueError before they are allocated.
    numeric_slope runs this same forward pass, with a tangent beside the
    state, and returns this state as its ``state``.

    Raises TruncationError naming the stage (prepare, nbs1, bs1, bs2 or nbs2)
    whose top-level occupancy exceeds the budget; from nbs2 on, mode c
    keeps the occupancy bs2 checked.
    """
    return _readout_pair(config, cutoff, budget, tangent=False)[0]


class SlopeEstimate(NamedTuple):
    """The slope and the readout state of its pass, simulate's result."""

    value: float
    state: FockState | DensityOperator


def numeric_slope(
    config: InterferometerConfig, cutoff: int = 15, budget: float = 1e-8
) -> SlopeEstimate:
    """Slope of <Y_a> with respect to the nonlinear phase at its configured
    value, exact within the truncated space, and the state it was read on.

    The derivative of the state rides beside it from the Kerr stage
    through the forward pass of simulate, so there is no step size, and
    the truncation checks and the ValueError of the memory cap are
    simulate's own.  The slope is 2 Re Tr(Y_a C), with C the cross term of
    the tangent and the state reduced to mode a: |dpsi><psi| when
    lossless, the tangent X = dP P^dag when lossy.
    """
    state, tangent = _readout_pair(config, cutoff, budget, tangent=True)
    if config.loss.is_lossless():
        psi = state.amplitudes.reshape(cutoff, -1)
        cross = tangent.amplitudes.reshape(cutoff, -1) @ psi.conj().T
    else:
        cross = reduced_density(tangent, MODE_A)
    return SlopeEstimate(2.0 * float(np.trace(_quadrature_y(cutoff) @ cross).real), state)


def oracle_qfi(
    config: InterferometerConfig, cutoff: int = 15, budget: float = 1e-8
) -> float:
    """Fisher information 4 (<n^4> - <n^2>^2) of the sensing-arm photon
    number, taken on the state entering the Kerr element.

    Only defined here for lossless configurations (the pure-state
    variance form); lossy configurations are rejected.
    """
    if not config.loss.is_lossless():
        raise ValueError(
            "oracle_qfi supports lossless configurations only "
            "(mixed-state Fisher information is out of scope)"
        )
    # kept only where a lossless run at this cutoff would keep it too
    state = _entering_kerr(config, cutoff, budget, _pass_bytes(cutoff, 1, False))
    pops = mode_populations(state, MODE_B)
    n = np.arange(state.cutoff, dtype=float)
    m2 = float(np.dot(pops, n**2))
    m4 = float(np.dot(pops, n**4))
    return 4.0 * (m4 - m2 * m2)
