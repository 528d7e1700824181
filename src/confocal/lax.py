"""Lax pairs with a spectral parameter, their runtime verification, and the
conserved families they generate.

Every continuous flow of the package carries a 2x2 pair (L, M) of rational
matrix functions of the spectral parameter with dL/dt = [L, M]; the flows on
the paired phase space additionally carry an (n+1)x(n+1) pair (L*, M*) with
dL*/dt = [M*, L*].  det L(lam) packages the first integrals as a rational
function with poles at the axes; clearing the poles yields the polynomial
whose real zeros are the parameters of the caustic quadrics.

Matrices are never stored as coefficient tables: a pair object keeps the
state data and evaluates entries at a requested parameter value.

`integral_family` broadcasts over a leading axis of the state's arrays (a
stack of states, one per row), each row equal bit for bit to the call on
that row's state; the pairs, determinants and reports take one state.  The
small pair's `L` and `det_L`, and `det_L` below, take an array of
parameters as well as one: the result then carries the array's shape ahead
of the matrix axes, each entry equal bit for bit to the call at that
parameter.  `A` and the big pair take one parameter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (
    PhaseState,
    SystemSpec,
    _mu_over_x,
    _pair,
    dirac_bracket,
    dirac_tensor,
    fd_gradient,
    rk4_step,
)
from .errors import InvariantVarietyError, PoleError
from .geometry import EllipsoidSpec, _pole_guard, pole_form
from .potentials import delta_value, hierarchy_eval, omega_coefficients

# the kinds whose small and big pairs are built, and those the rank report takes
_PAIR_KINDS = {"small": ("jacobi", "jacobi_rosochatius", "separable_hierarchy",
                         "complex_jacobi", "double_jacobi", "free_jr"),
               "big": ("jacobi", "double_jacobi")}
_RANK_KINDS = ("jacobi", "jacobi_rosochatius", "free_jr")


@dataclass
class LaxPair2:
    """2x2 pair; entries are generated lazily from the stored state data."""

    sys: SystemSpec
    x: np.ndarray
    y: np.ndarray
    xi: np.ndarray | None = None
    eta: np.ndarray | None = None

    def __post_init__(self):
        # with weights, the recurrence tables and the Omega_k coefficient
        # arrays are computed once per state
        self._tables = None
        self._omega = None
        if self.sys.sigmas:
            m = len(self.sys.sigmas)
            # level k + 1 of the depth-m tables is the depth-(k + 1) table
            self._tables = hierarchy_eval(self.sys.a, self.x, m)
            self._omega = [omega_coefficients(self._tables, k + 1) for k in range(m)]

    def _conj_pair(self):
        """Second position/momentum pair entering the bilinear forms."""
        if self.sys.paired:
            return self.xi, self.eta
        return self.x.conj(), self.y.conj()

    def L(self, lam) -> np.ndarray:
        """L(lam), shape (2, 2); (k, 2, 2) for an array of k parameters."""
        a = self.sys.a
        _pole_guard(a, lam)
        xi, eta = self._conj_pair()
        x, y = self.x, self.y
        q_xeta = pole_form(a, lam, x, eta)
        q_yeta = pole_form(a, lam, y, eta)
        q_xxi = pole_form(a, lam, x, xi)
        q_yxi = pole_form(a, lam, y, xi)
        top = q_yeta + self._force_term(lam)
        return _mat2(q_xeta, top, -1.0 - q_xxi, -q_yxi)

    def _force_term(self, lam):
        """Upper-right addition beyond the momentum form: charges plus forcing."""
        sys = self.sys
        val = 0.0
        if any(sys.mu):
            w = _mu_over_x(sys, self.x)
            val += pole_form(sys.a, lam, w, w)
        if sys.sigmas:
            val += sum(sig * delta_value(self._tables, k + 1, lam)
                       for k, sig in enumerate(sys.sigmas))
        else:
            val += sys.sigma
        return val

    def A(self, lam: float) -> np.ndarray:
        sys = self.sys
        a = sys.a
        _pole_guard(a, lam)
        if not sys.constrained:
            return np.array([[0.0, -sys.sigma], [1.0, 0.0]])
        if lam == 0.0:
            raise PoleError("lam=0 is a pole of the companion matrix")
        xi, eta = self._conj_pair()
        den = ((self.x / a**2) @ xi).real
        kin = ((self.y / a) @ eta).real
        charge = 0.0
        if any(sys.mu):
            w = _mu_over_x(sys, self.x)
            charge = float((w / a) @ w)
        if sys.sigmas:
            grads = self._tables.gradV
            gradVplus = 0.5 * sum(sig * grads[k] for k, sig in enumerate(sys.sigmas))
            pump = float((gradVplus / a) @ self.x)
            omega_sum = sum(sig * float(np.polyval(c, lam))
                            for sig, c in zip(sys.sigmas, self._omega))
            top = (pump - kin - charge) / lam / den - omega_sum
        else:
            top = ((sys.sigma - kin - charge) / lam - sys.sigma * den) / den
        return np.array([[0.0, top], [1.0, 0.0]])

    def det_L(self, lam):
        m = self.L(lam)
        return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


@dataclass
class LaxPairBig:
    """(n+1)x(n+1) pair, degree 2 in the parameter on the paired phase space."""

    sys: SystemSpec
    x: np.ndarray
    y: np.ndarray
    xi: np.ndarray
    eta: np.ndarray

    def L(self, lam: float) -> np.ndarray:
        a = self.sys.a
        sig = self.sys.sigma
        return (lam * (np.outer(self.y, self.xi) - np.outer(self.x, self.eta))
                + np.outer(self.y, self.eta) + sig * np.outer(self.x, self.xi)
                - sig * np.diag(a) - lam**2 * np.diag(a))

    def A(self, lam: float) -> np.ndarray:
        a = self.sys.a
        den = (self.x / a**2) @ self.xi
        return (np.outer(self.y / a, self.xi / a) - np.outer(self.x / a, self.eta / a)
                + lam * np.diag(1.0 / a)) / den

    def det_L(self, lam: float) -> float:
        return float(np.linalg.det(self.L(lam)))


def has_pair(sys: SystemSpec, which: str) -> bool:
    """Whether the flow of the kind carries the 'small' or the 'big' pair."""
    if which not in _PAIR_KINDS:
        raise ValueError("which must be 'small' or 'big'")
    return sys.kind in _PAIR_KINDS[which]


def build_lax(sys: SystemSpec, s: PhaseState, which: str = "small"):
    """Lax pair of the flow at a state; `which` selects 'small' or 'big'."""
    if not has_pair(sys, which):
        raise ValueError(f"no {which} pair for kind {sys.kind!r}")
    if which == "small":
        return LaxPair2(sys, s.x, s.y, s.xi, s.eta)
    # the unpaired flow is the paired one on its diagonal (xi, eta) = (x, y)
    xi, eta = (s.xi, s.eta) if sys.paired else (s.x, s.y)
    v1 = abs((s.x / sys.a) @ eta)
    v2 = abs((s.y / sys.a) @ xi)
    if max(v1, v2) > 1e-8:
        raise InvariantVarietyError(
            f"state violates the defining variety ({v1:.2e}, {v2:.2e})")
    return LaxPairBig(sys, s.x, s.y, xi, eta)


def _commutator(sys: SystemSpec, s: PhaseState, which: str, lam: float) -> np.ndarray:
    """[L, M] of the small pair, [M*, L*] of the big one, at the state."""
    pair = build_lax(sys, s, which)
    L, A = pair.L(lam), pair.A(lam)
    return L @ A - A @ L if which == "small" else A @ L - L @ A


def _central_dL(sys: SystemSpec, s: PhaseState, which: str, lam: float,
                h: float) -> np.ndarray:
    """dL/dt at the state by a central difference over RK4 steps of +-h."""
    pp = build_lax(sys, rk4_step(sys, s, h), which)
    pm = build_lax(sys, rk4_step(sys, s, -h), which)
    return (pp.L(lam) - pm.L(lam)) / (2.0 * h)


def lax_defect(sys: SystemSpec, s: PhaseState, which: str, lam: float,
               h: float = 1e-5) -> np.ndarray:
    """Matrix dL/dt minus the commutator, dL/dt by a central difference.

    The bracket ordering is [L, M] for the small pairs and [M*, L*] for the
    big one; the defect decays quadratically in h.
    """
    return _central_dL(sys, s, which, lam, h) - _commutator(sys, s, which, lam)


def lax_residual(sys: SystemSpec, s: PhaseState, which: str, lam: float,
                 h: float = 1e-5) -> float:
    """Max-entry norm of the Richardson-extrapolated Lax defect.

    With D = `lax_defect`, (4 D(h/2) - D(h)) / 3 cancels the h^2 term of the
    central difference (Richardson, Phil. Trans. A 210, 1911), which leaves
    the identity's own residual plus O(h^4) and rounding.  The two defects
    share the pair at s and its commutator, so a residual builds five pairs.
    """
    comm = _commutator(sys, s, which, lam)
    D = (4.0 * (_central_dL(sys, s, which, lam, h / 2.0) - comm)
         - (_central_dL(sys, s, which, lam, h) - comm)) / 3.0
    return float(np.max(np.abs(D)))


def _mat2(m00, m01, m10, m11) -> np.ndarray:
    """2x2 matrices from entries of one shape: (..., 2, 2), C-contiguous."""
    m = np.empty(np.shape(m00) + (2, 2), dtype=np.result_type(m00, m01, m10, m11))
    m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1] = m00, m01, m10, m11
    return m


# ---------------------------------------------------------------------------
# integral families
# ---------------------------------------------------------------------------

def _outer(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """np.outer(u, v) over the last axis, broadcast over leading ones."""
    return u[..., :, None] * v[..., None, :]


def _pair_table(sys: SystemSpec, s: PhaseState) -> np.ndarray:
    """Symmetric table P[i, j] of the pairwise invariants entering the f_i."""
    x, y = s.x, s.y
    phi = _outer(y, x) - _outer(x, y)
    if sys.paired:
        return phi * (_outer(s.eta, s.xi) - _outer(s.xi, s.eta))
    # |phi|^2 is phi * phi bit for bit on real arrays
    P = np.abs(phi) ** 2
    if any(sys.mu):
        w = _mu_over_x(sys, x)
        # mu_i^2 x_j^2 / x_i^2 + mu_j^2 x_i^2 / x_j^2, symmetric
        P = P + _outer(w**2, x**2) + _outer(x**2, w**2)
        diag = np.arange(sys.a.size)
        P[..., diag, diag] = 0.0
    return P


def _local_parts(sys: SystemSpec, s: PhaseState) -> np.ndarray:
    """Per-axis pieces l_i with f_i = l_i + sum_j P_ij / (a_i - a_j)."""
    if sys.paired:
        return s.y * s.eta + sys.sigma * s.x * s.xi
    out = np.abs(s.y) ** 2
    if sys.sigmas:
        t = hierarchy_eval(sys.a, s.x, len(sys.sigmas))
        for sig, F in zip(sys.sigmas, t.F):
            out = out + sig * F
    else:
        out = out + sys.sigma * np.abs(s.x) ** 2
    mu = sys.mu_arr
    nz = mu != 0
    if nz.any():
        add = np.zeros_like(out)
        add[..., nz] = mu[nz] ** 2 / s.x[..., nz] ** 2
        out = out + add
    return out


def _poly_part(sys: SystemSpec, lam: float) -> float:
    """Value at lam of det L's polynomial part: coefficients sigmas or (sigma,)."""
    return float(sum(sig * lam**k for k, sig in enumerate(sys.sigmas or (sys.sigma,))))


def _poly_part_degree(sys: SystemSpec) -> int:
    deg = -1
    for k, sig in enumerate(sys.sigmas or (sys.sigma,)):
        if sig != 0.0:
            deg = k
    return deg


@dataclass
class IntegralFamily:
    """Conserved quantities of a flow at one state, indexed by the partition.

    `f` holds the per-axis integrals (None when axes repeat); `ftilde` the
    per-group sums, `P` the in-group rotational invariants (zero for
    singleton groups), `P_pairs` the in-group pairwise invariants keyed
    (group, i, j), and `L_chain` their nested partial sums keyed (group, k).
    `charges` carries the angular momenta and `J` the scaled spectral
    integral of the complex flow.  `relation_residual` is the difference of
    the two sides of the pole-sum identity tying ftilde, P and the charges
    together.  For a stack of states every entry carries the stack's
    leading axis.
    """

    H: float
    f: np.ndarray | None
    ftilde: np.ndarray
    P: np.ndarray
    P_pairs: dict
    L_chain: dict
    charges: np.ndarray | None = None
    J: float | None = None
    relation_residual: float | None = None


def integral_family(sys: SystemSpec, s: PhaseState) -> IntegralFamily:
    """All conserved families of the flow at a state.

    Broadcasts over a leading axis of the state's arrays (a stack of states,
    one per row); each row equals the call on that row's state bit for bit,
    since every sum runs in the same order: f_i = l_i + ((0 + t_i0) + t_i1)
    ... over j != i, and ftilde_s = ((sum of l over the group) + t_ij) + ...
    with t_ij = P_ij / (a_i - a_j).
    """
    spec = sys.ellipsoid
    part = spec.partition
    alpha = spec.group_values
    a = sys.a
    P_tab = _pair_table(sys, s)
    loc = _local_parts(sys, s)
    lead = loc.shape[:-1]
    r1 = len(part)
    ftilde = np.empty(lead + (r1,))
    P = np.zeros(lead + (r1,))
    P_pairs: dict = {}
    L_chain: dict = {}
    for si, grp in enumerate(part):
        grp = list(grp)
        others = [j for j in range(a.size) if j not in grp]
        val = loc[..., grp].sum(axis=-1)
        for i in grp:
            for j in others:
                val = val + P_tab[..., i, j] / (a[i] - a[j])
        ftilde[..., si] = val
        for ii, i in enumerate(grp):
            for j in grp[ii + 1:]:
                P_pairs[(si, i, j)] = P_tab[..., i, j]
        if len(grp) >= 2:
            P[..., si] = sum(P_pairs[(si, i, j)] for ii, i in enumerate(grp)
                             for j in grp[ii + 1:])
            for k in range(1, len(grp)):
                sub = grp[:k + 1]
                L_chain[(si, k)] = sum(P_pairs[(si, i, j)]
                                       for ii, i in enumerate(sub) for j in sub[ii + 1:])
    f = None
    if not spec.is_symmetric:
        f = np.empty(loc.shape)
        for i in range(a.size):
            f[..., i] = loc[..., i] + sum(P_tab[..., i, j] / (a[i] - a[j])
                                          for j in range(a.size) if j != i)
    H = 0.5 * ftilde.sum(axis=-1)
    fam = IntegralFamily(H, f, ftilde, P, P_pairs, L_chain)
    if sys.constrained and sys.complex:
        fam.charges = (np.conj(s.x) * s.y).imag
        fam.J = (_pair(s.y / a, s.y) - sys.sigma) * _pair(s.x / a**2, s.x)
    elif sys.constrained and not sys.paired:
        mu = sys.mu_arr
        lhs = (ftilde / alpha).sum(axis=-1)
        rhs = (_poly_part(sys, 0.0) + (P / alpha**2).sum(axis=-1)
               + float((mu**2 / a**2).sum()))
        fam.relation_residual = lhs - rhs
    return fam


def det_L(sys: SystemSpec, s: PhaseState, lam):
    """det of the small Lax matrix at lam (poles at the axes excluded); an
    array of parameters gives an array of determinants."""
    return build_lax(sys, s, "small").det_L(lam)


def clearing_exponents(sys: SystemSpec) -> np.ndarray:
    """Pole-clearing exponent per partition group: 2 when the group carries a
    charge or has size >= 2, else 1."""
    part = sys.ellipsoid.partition
    mu = sys.mu_arr
    out = np.empty(len(part), dtype=int)
    for si, grp in enumerate(part):
        charged = any(mu[i] != 0 for i in grp)
        out[si] = 2 if (charged or len(grp) >= 2) else 1
    return out


def lambda_samples(axes, k: int) -> np.ndarray:
    """k spectral-parameter samples, ascending, away from the poles.

    The midpoints between the sorted distinct axes come first; further
    points alternate above and below the extremes at multiples of 0.7 times
    the axis span.
    """
    a = np.unique(np.asarray(axes, dtype=float))
    span = float(a[-1] - a[0]) if a.size > 1 else max(1.0, float(a[0]))
    pts = list((a[:-1] + a[1:]) / 2.0)
    j = 1
    while len(pts) < k:
        pts.append(float(a[-1] + 0.7 * j * span))
        if len(pts) < k:
            pts.append(float(a[0] - 0.7 * j * span))
        j += 1
    return np.array(sorted(pts[:k]))


def psi_poly(sys: SystemSpec, s: PhaseState) -> np.ndarray:
    """Coefficients (highest first) of det L with its poles cleared.

    The clearing factor is prod_s (lam - alpha_s)^{delta_s} with delta_s from
    `clearing_exponents`; coefficients are recovered by interpolation at the
    deg + 1 points of `lambda_samples`: the midpoints between the distinct
    axes, then points beyond the extremes.
    """
    alpha = sys.ellipsoid.group_values
    delta = clearing_exponents(sys)
    deg = int(delta.sum()) + _poly_part_degree(sys)
    if deg < 0:
        return np.zeros(1)
    pts = lambda_samples(alpha, deg + 1)
    vals = (np.real(build_lax(sys, s, "small").det_L(pts))
            * np.prod((pts[:, None] - alpha) ** delta, axis=-1))
    return np.linalg.solve(np.vander(pts, deg + 1), vals)


def real_roots(coeffs) -> np.ndarray:
    """Sorted real roots of a polynomial given by `psi_poly` coefficients."""
    c = np.trim_zeros(np.asarray(coeffs, dtype=float), "f")
    if c.size <= 1:
        return np.zeros(0)
    rts = np.roots(c)
    scale = max(1.0, float(np.max(np.abs(rts))))
    return np.sort(rts[np.abs(rts.imag) <= 1e-7 * scale].real)


# ---------------------------------------------------------------------------
# commutation and rank reports
# ---------------------------------------------------------------------------

@dataclass
class CheckRecord:
    name: str
    value: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.value <= self.threshold


def commuting_pairs(spec: EllipsoidSpec) -> list[tuple]:
    """Identifiers of all observable pairs whose constrained bracket vanishes.

    Observables are tagged ('ftilde', s), ('P', s), ('Ppair', s, i, j),
    ('Psum', s, (pairs...)) and ('Lchain', s, k).
    """
    part = spec.partition
    r1 = len(part)
    big = [si for si in range(r1) if len(part[si]) >= 2]
    pairs: list[tuple] = []
    for s1 in range(r1):
        for s2 in range(s1 + 1, r1):
            pairs.append((("ftilde", s1), ("ftilde", s2)))
    for s1 in range(r1):
        for s2 in big:
            if ("P", s2) != ("ftilde", s1):
                pairs.append((("ftilde", s1), ("P", s2)))
    for i1, s1 in enumerate(big):
        for s2 in big[i1 + 1:]:
            pairs.append((("P", s1), ("P", s2)))
    for s2 in big:
        grp = part[s2]
        for ii, i in enumerate(grp):
            for j in grp[ii + 1:]:
                for s1 in range(r1):
                    pairs.append((("ftilde", s1), ("Ppair", s2, i, j)))
                for s1 in big:
                    pairs.append((("P", s1), ("Ppair", s2, i, j)))
    # cross-group pairwise invariants commute
    for i1, s1 in enumerate(big):
        for s2 in big[i1 + 1:]:
            g1, g2 = part[s1], part[s2]
            for ii, i in enumerate(g1):
                for j in g1[ii + 1:]:
                    for kk, k in enumerate(g2):
                        for l in g2[kk + 1:]:
                            pairs.append((("Ppair", s1, i, j), ("Ppair", s2, k, l)))
    # in-group relations: {P_ij, P_ik + P_jk} and disjoint {P_ij, P_kl}
    for si in big:
        grp = part[si]
        for ii, i in enumerate(grp):
            for j in grp[ii + 1:]:
                for k in grp:
                    if k in (i, j):
                        continue
                    pairs.append((("Ppair", si, i, j),
                                  ("Psum", si, (tuple(sorted((i, k))), tuple(sorted((j, k)))))))
                for kk, k in enumerate(grp):
                    for l in grp[kk + 1:]:
                        if {k, l} & {i, j} or (k, l) <= (i, j):
                            continue
                        pairs.append((("Ppair", si, i, j), ("Ppair", si, k, l)))
    # chain sums commute among themselves and with their members
    chain = [(si, k) for si in big for k in range(1, len(part[si]))]
    for c1 in range(len(chain)):
        for c2 in range(c1 + 1, len(chain)):
            pairs.append((("Lchain",) + chain[c1], ("Lchain",) + chain[c2]))
    for si, k in chain:
        sub = part[si][:k + 1]
        for ii, i in enumerate(sub):
            for j in sub[ii + 1:]:
                pairs.append((("Ppair", si, i, j), ("Lchain", si, k)))
    return pairs


# observable tag kind -> (its value in a family, its record name), each
# called with the tag's remaining fields; values read a stacked family too
_OBSERVABLES = {
    "ftilde": (lambda fam, s: fam.ftilde[..., s], lambda s: f"ftilde[{s}]"),
    "P": (lambda fam, s: fam.P[..., s], lambda s: f"P[{s}]"),
    "Ppair": (lambda fam, s, i, j: fam.P_pairs[(s, i, j)],
              lambda s, i, j: f"P[{s};{i},{j}]"),
    "Psum": (lambda fam, s, pairs: sum(fam.P_pairs[(s,) + ij] for ij in pairs),
             lambda s, pairs: f"P[{s};" + "+".join(f"{i},{j}" for i, j in pairs) + "]"),
    "Lchain": (lambda fam, s, k: fam.L_chain[(s, k)], lambda s, k: f"L[{s};{k}]"),
}


def _tag_gradients(sys: SystemSpec, s: PhaseState, tags: list) -> dict:
    """Phase-space gradient of each observable tag at a state, keyed by tag:
    one stacked central difference (`fd_gradient`) of `integral_family`."""

    def values(st):
        fam = integral_family(sys, st)
        return np.stack([_OBSERVABLES[t[0]][0](fam, *t[1:]) for t in tags], axis=-1)

    return dict(zip(tags, fd_gradient(values, s).T))


def commutation_suite(sys: SystemSpec, s: PhaseState,
                      tol: float = 1e-6) -> list[CheckRecord]:
    """Constrained brackets of the vanishing pairs at one state.

    The gradients come from `_tag_gradients`.  Returns one record per pair
    with the absolute bracket value.
    """
    pairs = commuting_pairs(sys.ellipsoid)
    tags = sorted({t for pr in pairs for t in pr}, key=repr)
    grads = _tag_gradients(sys, s, tags)
    names = {t: _OBSERVABLES[t[0]][1](*t[1:]) for t in tags}
    return [CheckRecord(f"{{{names[t1]},{names[t2]}}}",
                        abs(dirac_bracket(sys.a, grads[t1], grads[t2], s)), tol)
            for t1, t2 in pairs]


def gradient_rank_report(sys: SystemSpec, s: PhaseState) -> dict:
    """Numeric ranks of the spans of the two conserved families' vector fields.

    The rows are the constrained Hamiltonian vector fields (Dirac tensor
    applied to the gradients of `_tag_gradients`); contracting is what turns
    the on-shell pole-sum relation into an actual linear dependency.  For a
    partition with r+1 groups, rho of which have size >= 2, the span of
    {ftilde_s, P_{s,ij}} has dimension 2n - r - rho and the span of
    {ftilde_s, P_s} has dimension r + rho at generic states.  Raises
    ValueError outside the jacobi, jacobi_rosochatius and free_jr kinds.
    """
    if sys.kind not in _RANK_KINDS:
        raise ValueError("rank reports are provided for quadratic kinds only")
    spec = sys.ellipsoid
    part = spec.partition
    r = len(part) - 1
    rho = sum(1 for g in part if len(g) >= 2)
    n = spec.dim
    central = [("ftilde", si) for si in range(len(part))]
    central += [("P", si) for si, grp in enumerate(part) if len(grp) >= 2]
    pairs = [("Ppair", si, i, j) for si, grp in enumerate(part)
             for ii, i in enumerate(grp) for j in grp[ii + 1:]]
    grads = _tag_gradients(sys, s, central + pairs)
    W = dirac_tensor(sys.a, s)

    def rank(tags):
        sv = np.linalg.svd(np.array([W @ grads[t] for t in tags]), compute_uv=False)
        return int(np.count_nonzero(sv > 1e-7 * sv[0]))

    return {
        "rank_full_family": rank(central[:len(part)] + pairs),
        "expected_full_family": 2 * n - r - rho,
        "rank_central_family": rank(central),
        "expected_central_family": r + rho,
    }
