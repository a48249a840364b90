"""The exact law of the weighted squared norm of a posterior Gaussian draw.

:class:`MultiplierBall` is the law of S = sum_l w_l |(C^{1/2} xi + o)_l|^2 for spectral white
noise xi, H^zeta weights w and an offset o: a shift plus a weighted sum of independent
noncentral chi-squares (Imhof 1961; Davies 1980).  It is built from a multiplier root or,
through :meth:`MultiplierBall._from_cosine_sine_root`, a dense one, and
:meth:`MultiplierBall._escape_probs` evaluates its tail for a stack of offsets with a stated
absolute error.  :func:`posterior._trace_ball` builds the law of a model.
"""

from __future__ import annotations

import math

import numpy as np

from .lattice import FrequencyLattice, _mode_groups, _rows_to_cosine_sine, sobolev_weight


# Shares of the error bound stated by MultiplierBall._escape_probs, each an
# absolute probability: aliasing on either side of the integration period,
# truncation of the integral, the Gaussian convergence factor, and the
# Chernoff bound below which a far tail is settled as exactly 0 or 1.
_ALIAS_TOL = 1e-11
_TRUNC_TOL = 1e-11
_SMOOTH_TOL = 1e-11
_TAIL_TOL = 1e-11
# A grid holds at most this many (group, node) terms; where the cut-off
# needs more, the larger truncation bound is stated as it is.
_MAX_TERMS = 1 << 22
# Chernoff parameters in units of 1 / (2 max lambda): the upper tail needs
# 0 < t < 1 / (2 max lambda), the lower tail any t > 0.
_S_UPPER = np.concatenate([np.geomspace(1e-9, 0.5, 120), 1.0 - np.geomspace(0.5, 1e-12, 101)[1:]])
_S_LOWER = np.geomspace(1e-9, 1e15, 250)


class _Grid:
    """Midpoint nodes u_k = (k + 1/2) 2 pi / span and the central part of log phi: O(n)
    numbers, built by the :meth:`MultiplierBall._escape_probs` call that reads them, as is
    the noncentral node table, G x n."""

    def __init__(self, ball: "MultiplierBall", span: float):
        step = 2.0 * math.pi / span
        n = min(math.ceil(ball.cutoff / step - 0.5) + 1, _MAX_TERMS // ball.lam.size)
        self.k_half = np.arange(n) + 0.5
        self.u = self.k_half * step
        terms = np.outer(ball.lam, -2j * self.u)
        terms += 1.0
        self.log_phi = -0.5 * (ball.dof @ np.log(terms, out=terms))
        self.log_phi -= 0.5 * (ball.tau * self.u) ** 2
        self.truncation = ball._truncation_bound(self.u[-1], ball.tau)


class MultiplierBall:
    """Exact tail of the weighted squared norm of a posterior Gaussian draw, for a
    multiplier root or, through :meth:`_from_cosine_sine_root`, a dense one.

    For a root symbol rho, weights w_l = (1 + |l|^2)^zeta and spectral white
    noise xi as ``lattice._white_coeffs`` draws it for every sampler (the law of
    ``fftn(z) / sqrt(K)``, with xi_-l = conj(xi_l) bit for bit), the statistic
    S = sum_l w_l |rho_l xi_l + o_l|^2 equals R + Q, where
    Q = sum_g lambda_g chi^2(h_g, nc_g) is a sum of independent noncentral
    chi-squares.  A self-conjugate mode has a real N(0, 1) entry: lambda =
    w |rho|^2, one degree of freedom, noncentrality (Re(conj(rho) o) / |rho|^2)^2,
    and the rest of w |o|^2 goes into the shift R.  A pair l, -l shares one
    complex entry xi_l = conj(xi_-l); with A = w_1 |rho_1|^2 + w_2 |rho_2|^2
    and B = w_1 conj(rho_1) o_1 + w_2 rho_2 conj(o_2) it contributes
    A |xi_l + B / A|^2 + w_1 |o_1|^2 + w_2 |o_2|^2 - |B|^2 / A: lambda = A / 2,
    two degrees of freedom, noncentrality 2 |B / A|^2.  This holds for any
    rho and o, even or Hermitian or not.  Equal lambdas are merged, adding
    degrees of freedom and noncentralities.  A dense posterior has the same
    law with one degree of freedom per eigenvalue (:meth:`_from_cosine_sine_root`);
    only the step from offsets to noncentralities differs.

    The groups, the central Chernoff tables and the truncation point depend
    only on the root and zeta; only nc_g and R depend on the offset, so one
    instance serves every replicate, and :meth:`_escape_probs` takes a whole
    (replicate, K) stack of offsets in one call, or none for the central
    law: the law's one tail entry point.  A law keeps O(G + T) numbers beyond
    its K-sized term indices, for G groups and T Chernoff points: each call
    builds the integration grid of each period it reads (a power of two) and,
    when it reads offsets, the G x T and G x n noncentral tables in one
    scratch buffer, and drops them when it returns.  A dense law that reads
    offsets also keeps its K x K projection.
    """

    def __init__(self, root, lattice: FrequencyLattice, zeta: float = 0.0):
        root = np.asarray(root, dtype=np.complex128)
        if root.shape != (lattice.size,):
            raise ValueError(f"root has shape {root.shape}, lattice needs ({lattice.size},)")
        real, pair, mate = _mode_groups(lattice)
        self._w = sobolev_weight(lattice, zeta)
        wroot = self._w * np.conj(root)
        wr2 = self._w * np.abs(root) ** 2
        quad = np.concatenate([wr2[real], wr2[pair] + wr2[mate]])
        dof = np.concatenate([np.ones(real.size), np.full(pair.size, 2.0)])
        # each live term in group order reads b = w conj(rho) o as t = b_l + conj(b_m): m = -l
        # for a pair, whose noncentrality term is 2 |t|^2 / quad^2, and m = l for a
        # self-conjugate mode, whose t = 2 Re b_l gives (Re b_l)^2 / quad^2 = |t|^2 / 4 / quad^2
        terms = self._group(quad, dof, np.where(dof == 1, 0.25, 2.0))
        self._first = np.concatenate([real, pair])[terms]
        self._second = np.concatenate([real, mate])[terms]
        self._w_first, self._w_second = wroot[self._first], np.conj(wroot[self._second])
        self._proj = None

    @classmethod
    def _from_cosine_sine_root(cls, root: np.ndarray, w: np.ndarray, lattice: FrequencyLattice,
                               offsets: bool = True) -> "MultiplierBall":
        """The law of S = sum_l w_l |(Q^H R z + o)_l|^2 for a root R R^H = C_cs in the
        cosine/sine basis, ``w`` the H^zeta weights in cosine/sine order and z = Q xi, real
        standard normal.  The even weights are diagonal there, so with Y = sqrt(w) R and
        b = sqrt(w) Q o, S = |Y z + b|^2.  One ``eigh`` Re(Y^H Y) = V diag(mu) V^T gives
        S = sum_k mu_k (Z_k + t_k / mu_k)^2 + |b|^2 - sum_k t_k^2 / mu_k for Z = V^T z and
        t = Re(b^H Y V): one degree of freedom per eigenvalue (Imhof 1961), t read from the
        kept K x K projection sqrt(w) conj(Y V).  With ``offsets`` False the law reads
        central tails only: one ``eigvalsh`` gives mu, and no projection is kept.
        """
        k = lattice.size
        if root.shape != (k, k) or w.shape != (k,):
            raise ValueError(f"root {root.shape} and weights {w.shape} do not fit K = {k}")
        ball = cls.__new__(cls)
        ball._w = w[np.argsort(lattice._mode_order)]  # in exponential order
        ball._proj = ball._first = None
        y = np.sqrt(w)[:, None] * root
        m = y.T @ y if np.isrealobj(y) else (y.conj().T @ y).real
        ones = np.ones(k)
        if not offsets:
            del y
            ball._group(np.linalg.eigvalsh(m), ones, ones)
            return ball
        mu, v = np.linalg.eigh(m)
        del m
        terms = ball._group(mu, ones, ones)
        ball._proj = np.sqrt(w)[:, None] * (y @ v[:, terms]).conj()
        ball._lattice = lattice
        return ball

    def _group(self, quad: np.ndarray, dof: np.ndarray, coef: np.ndarray) -> np.ndarray:
        """Merge the terms lambda = quad / dof with quad > 0 into groups of equal lambda and
        build the law's tables.  ``coef`` scales |t|^2 / quad^2 into each term's
        noncentrality.  Returns the indices of the live terms in group order."""
        live = np.flatnonzero(quad > 0)
        quad, dof = quad[live], dof[live]
        self.lam, group = np.unique(quad / dof, return_inverse=True)
        self.dof = np.bincount(group, weights=dof, minlength=self.lam.size)
        order = np.argsort(group, kind="stable")
        self._nc_coef = (coef[live] / quad**2)[order]
        self._starts = np.flatnonzero(np.diff(group[order], prepend=-1))
        self.tau = 0.0
        self._kink = 0.0
        if self.lam.size:
            self._chernoff_tables()
            self._choose_cutoff()
        return live[order]

    def _chernoff_tables(self):
        """Log moment generating function of the central Q on fixed grids of t and -t."""
        scale = 2.0 * self.lam[-1]
        self._t_up = _S_UPPER / scale
        self._t_lo = _S_LOWER / scale
        self._k_up = -0.5 * (self.dof @ np.log1p(-np.outer(2.0 * self.lam, self._t_up)))
        self._k_lo = -0.5 * (self.dof @ np.log1p(np.outer(2.0 * self.lam, self._t_lo)))

    def _noncentral_tables(self, buf: np.ndarray):
        """The (G, T) tables x / (2 (1 - x)) at t and -x / (2 (1 + x)) at -t, x = 2 lambda t,
        whose products with the noncentralities add to the log MGF: built in place in the
        flat scratch ``buf``, which holds G (T_up + 2 T_lo) numbers."""
        g, n_up, n_lo = self.lam.size, self._t_up.size, self._t_lo.size
        kn_up = buf[:g * n_up].reshape(g, n_up)
        kn_lo = buf[g * n_up:g * (n_up + n_lo)].reshape(g, n_lo)
        den = buf[g * (n_up + n_lo):g * (n_up + 2 * n_lo)].reshape(g, n_lo)
        np.multiply.outer(2.0 * self.lam, self._t_up, out=kn_up)
        np.subtract(1.0, kn_up, out=den[:, :n_up])
        kn_up *= 0.5
        kn_up /= den[:, :n_up]
        np.multiply.outer(2.0 * self.lam, self._t_lo, out=kn_lo)
        np.add(1.0, kn_lo, out=den)
        kn_lo *= -0.5
        kn_lo /= den
        return kn_up, kn_lo

    def _log_mgf(self, nc: np.ndarray, tau: float, kn=None):
        """log E exp(t (Q + tau Z)) on the upper grid and at -t on the lower one, one row per
        row of the (n, G) noncentralities ``nc`` with the tables ``kn`` of
        :meth:`_noncentral_tables`, one product per table; without ``kn`` the central
        law's one row."""
        k_up, k_lo = self._k_up[None], self._k_lo[None]
        if kn is not None:
            k_up, k_lo = self._k_up + nc @ kn[0], self._k_lo + nc @ kn[1]
        return k_up + 0.5 * (tau * self._t_up) ** 2, k_lo + 0.5 * (tau * self._t_lo) ** 2

    def _log_tails(self, k_up, k_lo, y: np.ndarray):
        """Chernoff log bounds on P(X_i >= y_i) and P(X_i <= y_i) for the log MGF rows.

        A product t y past the float range is inf, which gives each bound its limit.
        """
        with np.errstate(over="ignore"):
            return (np.minimum(0.0, np.min(k_up - self._t_up * y[:, None], axis=1)),
                    np.minimum(0.0, np.min(k_lo + self._t_lo * y[:, None], axis=1)))

    def _truncation_bound(self, u: float, tau: float) -> float:
        """Bound on (1/pi) int_u^inf |phi(v)| exp(-tau^2 v^2 / 2) / v dv.

        |phi(v)| <= prod_g (1 + 4 lambda_g^2 v^2)^(-h_g / 4).  For v >= u
        each factor is at most its value at u, and for the groups with
        x_g = 2 lambda_g u > 1 also at most (2 lambda_g v)^(-h_g / 2); the
        power law integrates to the plain bound, the convergence factor to
        the Gaussian one (int_u^inf exp(-a v^2) / v dv <= exp(-a u^2) / (2 a u^2)).
        """
        x = 2.0 * self.lam * u
        big = x > 1.0
        log_rest = -0.25 * float(self.dof[~big] @ np.log1p(x[~big] ** 2))
        h_big = float(self.dof[big].sum())
        best = math.inf
        if h_big > 0:
            log_big = -0.5 * float(self.dof[big] @ np.log(x[big]))
            best = 2.0 / (math.pi * h_big) * math.exp(log_rest + log_big)
        if tau > 0:
            log_phi = log_rest - 0.25 * float(self.dof[big] @ np.log1p(x[big] ** 2))
            v = (tau * u) ** 2
            best = min(best, math.exp(log_phi - 0.5 * v) / (math.pi * v))
        return best

    def _cutoff_for(self, tau: float) -> float:
        """Smallest node u (to 1%) whose truncation bound is below _TRUNC_TOL."""
        hi = 1.0 / (2.0 * self.lam[-1])
        while self._truncation_bound(hi, tau) > _TRUNC_TOL:
            hi *= 2.0
            if hi * self.lam[-1] > 1e30:
                return math.inf
        lo = hi / 2.0
        while hi > 1.01 * lo:
            mid = math.sqrt(lo * hi)
            if self._truncation_bound(mid, tau) > _TRUNC_TOL:
                lo = mid
            else:
                hi = mid
        return hi

    def _choose_cutoff(self):
        """Plain truncation, or a Gaussian convergence factor when that is shorter.

        With Z ~ N(0, 1) independent, P(Q + tau Z < c) differs from
        P(Q < c) by at most tau^2 sup|f_Q'| / 2 when f_Q is Lipschitz.  A
        group A = lambda chi^2(h, nc) gives sup|f_A'| <= 1 / (4 lambda^2) for
        h = 2 or h >= 4 (f_h' = (f_{h-2} - f_h) / 2 with 0 <= f_k <= 1/2),
        and f_Q' = f_A' * law(Q - A).  For h = 2 the density of A jumps by
        kink <= 1 / (2 lambda) at 0, which adds kink tau^2 sup f_B when the
        rest B has a bounded density (another group with h >= 2), or
        kink tau phi(c / tau) when A is all of Q.
        """
        self.cutoff = self._cutoff_for(0.0)
        eligible = np.flatnonzero((self.dof == 2) | (self.dof >= 4))
        if eligible.size == 0:
            return
        a = eligible[-1]
        curvature = 1.0 / (4.0 * self.lam[a] ** 2)
        kink = 0.0
        coef = 0.5 * curvature
        if self.dof[a] == 2:
            kink = 1.0 / (2.0 * self.lam[a])
            others = np.flatnonzero(self.dof >= 2)
            others = others[others != a]
            if others.size:
                coef += kink / (2.0 * self.lam[others[-1]])
            elif self.lam.size > 1:
                return
        tau = math.sqrt(_SMOOTH_TOL / coef)
        cutoff = self._cutoff_for(tau)
        if cutoff < self.cutoff:
            self.cutoff, self.tau = cutoff, tau
            self._kink = kink if self.lam.size == 1 else 0.0

    def _noncentralities(self, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Noncentralities nc (n, G) and shifts R (n,) of an (n, K) stack of offsets."""
        if offsets.ndim != 2 or offsets.shape[1] != self._w.size:
            raise ValueError(f"offsets have shape {offsets.shape}, expected (n, {self._w.size})")
        re, im = offsets.real, offsets.imag  # sum_l w_l |o_l|^2, with no BLAS dot per row
        norms = np.einsum("ik,ik,k->i", re, re, self._w) + np.einsum("ik,ik,k->i", im, im, self._w)
        if not np.isfinite(norms).all():
            raise ValueError("offset must be finite")
        if not self.lam.size:
            return np.zeros((len(offsets), 0)), norms
        if self._proj is None:
            if self._first is None:
                raise ValueError("this dense law was built for central tails only")
            t = np.take(offsets, self._first, axis=1)
            t *= self._w_first
            mate = np.take(offsets, self._second, axis=1)
            np.conjugate(mate, out=mate)
            mate *= self._w_second  # conj(b_m)
            t += mate
            sq = t.real**2
            sq += t.imag**2
        else:  # t = Re((Q o) @ proj), with no complex copy of a real factor
            qo = _rows_to_cosine_sine(self._lattice, offsets)
            t = qo.real @ self._proj.real
            if np.iscomplexobj(qo) and np.iscomplexobj(self._proj):
                t -= qo.imag @ self._proj.imag
            sq = t * t
        sq *= self._nc_coef
        nc = np.add.reduceat(sq, self._starts, axis=1)
        # a group's terms have |B|^2 / A summing to lambda_g nc_g
        return nc, norms - np.einsum("ig,g->i", nc, self.lam)

    def _noncentral_nodes(self, grid: _Grid, buf: np.ndarray) -> np.ndarray:
        """The (G, n) table x / (1 - 2 x), x = i lambda u, of ``grid``'s nodes, whose product
        with the noncentralities adds to log phi: built in place in the flat scratch
        ``buf``, which holds 4 G n numbers."""
        g, n = self.lam.size, grid.u.size
        x = buf[:2 * g * n].view(np.complex128).reshape(g, n)
        den = buf[2 * g * n:4 * g * n].view(np.complex128).reshape(g, n)
        x.real = 0.0
        np.multiply.outer(self.lam, grid.u, out=x.imag)
        den.real = 1.0
        np.multiply(-2.0, x.imag, out=den.imag)
        return np.divide(x, den, out=x)

    def _escape_probs(self, radius: float, offsets=None) -> tuple[np.ndarray, np.ndarray]:
        """P(S_i >= radius^2) and bounds on their absolute errors, one for each row o_i of an
        (n, K) stack of finite offsets, or one for the central law if ``offsets`` is None.

        The tail of Q is the Gil-Pelaez integral of its characteristic
        function phi, summed by the midpoint rule with step 2 pi / span
        (Imhof 1961; Davies 1973, 1980).  The sum is exact up to the aliased
        mass P(X >= c + span) + P(X < c - span), bounded by Chernoff; the
        cut-off of the sum comes from the truncation bound.  The result is
        clamped to [0, 1] and to the Chernoff bounds of Q, which settle far
        tails as exactly 0 or 1.  The stated bound adds aliasing,
        truncation, the convergence factor and a floating-point allowance.
        A radius whose square is past the float range, inf too, gives P = 0 with
        bound 0.

        Rows share each step that does not depend on the row's numbers: one product per
        Chernoff table for every row, then, for the rows the tails do not settle, one
        product with the noncentral table and one ``exp`` per period.  Each row's bound
        keeps its own terms.  Each period's integration grid is built where it is read, and
        the noncentral tables, G x T and G x n, in one scratch buffer for this call (grown
        only for a grid that needs more); all are dropped when it returns.
        """
        if not radius >= 0:  # NaN too
            raise ValueError(f"radius must be nonnegative, got {radius}")
        if offsets is None:
            nc, shift = np.zeros((1, self.lam.size)), np.zeros(1)
        else:
            nc, shift = self._noncentralities(offsets)
        c = float(radius) * float(radius) - shift  # inf past the float range, with no error
        p, bound = np.ones(c.size), np.zeros(c.size)  # c <= 0: S >= R >= radius^2
        p[np.isinf(c)] = 0.0  # S is finite
        rows = np.flatnonzero((c > 0) & np.isfinite(c))
        if self.lam.size == 0:
            p[rows] = 0.0
            return p, bound
        if self.dof.sum() == 1:
            # a lone real mode: lambda (Z + mu)^2 with Z ~ N(0, 1)
            for i in rows:
                a, mu = math.sqrt(c[i] / self.lam[0]), math.sqrt(nc[i, 0])
                p[i] = 0.5 * (math.erfc((a - mu) / math.sqrt(2.0))
                              + math.erfc((a + mu) / math.sqrt(2.0)))
                bound[i] = 8.0 * np.finfo(float).eps
            return p, bound
        nc, c = nc[rows], c[rows]
        buf = kn = None  # with offsets: the call's one scratch buffer and the tables in it
        if offsets is not None:
            buf = np.empty(self.lam.size * (self._t_up.size + 2 * self._t_lo.size))
            kn = self._noncentral_tables(buf)
        k_up, k_lo = self._log_mgf(nc, 0.0, kn)
        log_up, log_lo = self._log_tails(k_up, k_lo, c)
        log_tol = math.log(_TAIL_TOL)
        for i, up, lo in zip(rows.tolist(), log_up.tolist(), log_lo.tolist()):
            if up <= log_tol:
                p[i], bound[i] = 0.0, math.exp(up)
            elif lo <= log_tol:
                p[i], bound[i] = 1.0, math.exp(lo)
        keep = (log_up > log_tol) & (log_lo > log_tol)
        if not keep.any():
            return p, bound
        rows, nc, c, log_up, log_lo = rows[keep], nc[keep], c[keep], log_up[keep], log_lo[keep]

        tau = self.tau
        if tau > 0:  # at tau = 0 the log MGF of Q + tau Z is the one above
            k_up, k_lo = self._log_mgf(nc, tau, kn)
        else:
            k_up, k_lo = k_up[keep], k_lo[keep]
        del kn  # read no more: the node tables reuse its buffer
        log_eps = math.log(_ALIAS_TOL)
        y_up = np.min((k_up - log_eps) / self._t_up, axis=1)
        y_lo = np.max((log_eps - k_lo) / self._t_lo, axis=1)
        floor = y_lo if tau > 0 else np.maximum(y_lo, 0.0)
        exponents = np.array([math.ceil(math.log2(x))
                              for x in np.maximum(y_up - c, c - floor).tolist()])
        span = 2.0**exponents
        alias_up = self._log_tails(k_up, k_lo, c + span)[0]
        alias_lo = self._log_tails(k_up, k_lo, c - span)[1]

        total, rounding, truncation = np.empty((3, rows.size))
        for exponent in np.unique(exponents).tolist():
            sel = exponents == exponent
            grid = _Grid(self, 2.0**exponent)
            log_phi = grid.log_phi - 1j * grid.u * c[sel, None]
            if buf is not None:
                if buf.size < 4 * self.lam.size * grid.u.size:
                    buf = np.empty(4 * self.lam.size * grid.u.size)
                log_phi += nc[sel] @ self._noncentral_nodes(grid, buf)
            z = np.exp(log_phi)
            total[sel] = np.sum(z.imag / grid.k_half, axis=1)
            # floating-point allowance: phase errors of about eps (H + sum nc + u c)
            # per term, and the pairwise sum of the terms
            scale = (4.0 * ((float(self.dof.sum()) + nc[sel].sum(axis=1))[:, None]
                            + grid.u * c[sel, None]) + math.log2(grid.u.size))
            rounding[sel] = np.sum(np.abs(z) * scale / grid.k_half, axis=1)
            truncation[sel] = grid.truncation
        eps = np.finfo(float).eps
        for r, i in enumerate(rows.tolist()):
            alias = math.exp(alias_up[r])
            if tau > 0 or c[r] > span[r]:
                alias += math.exp(alias_lo[r])
            p_i = 0.5 + total[r] / math.pi
            p_i = min(max(p_i, 0.0), 1.0, math.exp(log_up[r]))
            p[i] = max(p_i, 1.0 - math.exp(log_lo[r]))
            smoothing = _SMOOTH_TOL if tau > 0 else 0.0
            if self._kink:
                smoothing += (self._kink * tau * math.exp(-0.5 * (c[r] / tau) ** 2)
                              / math.sqrt(2 * math.pi))
            bound[i] = alias + truncation[r] + smoothing + eps * rounding[r] / math.pi
        return p, bound
