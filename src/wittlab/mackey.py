"""Mackey functors for cyclic groups C_N.

Levels are indexed by the divisors of N (the subgroup C_d corresponds
to the divisor d) and carry finitely generated abelian groups.
Restriction, transfer and the action of the fixed global generator of
C_N are stored sparsely, only for covering pairs (d', d) with d/d'
prime; composites are derived by transitivity.  The double coset law
for the cyclic group reads

    res . tr = sum_j weyl[d']^(j*N/d),   j = 0 .. d/d' - 1.

``MackeyFunctor.validate`` checks it on covering pairs only: with
transitivity and Weyl-equivariance it then holds on every comparable
pair, by induction on the number of prime factors of d/d'.

Box products are computed by a finite generators-and-relations
presentation of the Day convolution, and geometric fixed points by the
transfer (Brauer) quotient, one case of ``quotient`` by added relations.
"""

from collections import Counter
from functools import cache, reduce
from itertools import accumulate, combinations
from math import gcd
from operator import floordiv, mul

from . import abgroups
from .abgroups import AbHom, FgAbGroup, _json_int, _sparse, unit_vector
from .errors import (ActionOrderInvalid, GroupMismatch,
                     InternalInvariantFailure, MackeyAxiomFailure,
                     NotASubgroup)


@cache
def divisors(n):
    """Ascending divisors from the prime factors, with no loop over
    1..n; cached, as builders ask again for every level.

    >>> divisors(12)
    (1, 2, 3, 4, 6, 12)
    """
    out = {1}
    for q in prime_steps(n):
        out |= {d * q for d in out}
    return tuple(sorted(out))


def prime_steps(q):
    """Prime factors of q with multiplicity, ascending."""
    out = []
    f = 2
    while f * f <= q:
        while q % f == 0:
            out.append(f)
            q //= f
        f += 1
    if q > 1:
        out.append(q)
    return out


class CyclicGroupSpec:
    """The cyclic group C_N with its divisor lattice of subgroups."""

    __slots__ = ("N", "divisors")

    def __init__(self, N):
        N = int(N)
        if N < 1:
            raise ValueError("group order must be positive")
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "divisors", divisors(N))

    def __setattr__(self, name, value):
        raise AttributeError("immutable")

    def covering_pairs(self):
        """All (d_sub, d) with d_sub | d | N and d/d_sub prime."""
        return [(d // q, d) for d in self.divisors
                for q in sorted(set(prime_steps(d)))]

    def comparable_pairs(self):
        """All (d_sub, d) with d_sub | d | N, d_sub < d."""
        return [(e, d) for d in self.divisors for e in divisors(d) if e < d]

    def __eq__(self, other):
        return isinstance(other, CyclicGroupSpec) and other.N == self.N

    def __hash__(self):
        return hash(("C", self.N))

    def __repr__(self):
        return "CyclicGroupSpec(%d)" % self.N


class MackeyFunctor:
    """Divisor-indexed levels with res, tr and Weyl generator action.

    ``res[(d, d_sub)]`` maps level[d] -> level[d_sub] and
    ``tr[(d_sub, d)]`` maps level[d_sub] -> level[d], both stored for
    covering pairs only.  ``weyl[d]`` is the action of the fixed global
    generator of C_N on level[d]; it has order dividing N/d.
    """

    def __init__(self, group, levels, res, tr, weyl):
        if not isinstance(group, CyclicGroupSpec):
            group = CyclicGroupSpec(group)
        self.group = group
        self.levels = dict(levels)
        self.res = dict(res)
        self.tr = dict(tr)
        self.weyl = dict(weyl)
        for d in group.divisors:
            if d not in self.levels:
                raise ValueError("missing level %d" % d)
            if d not in self.weyl:
                self.weyl[d] = AbHom.identity(self.levels[d])
        for (dsub, d) in group.covering_pairs():
            if (d, dsub) not in self.res or (dsub, d) not in self.tr:
                raise ValueError("missing covering maps for %d | %d"
                                 % (dsub, d))

    @property
    def N(self):
        return self.group.N

    def level(self, d):
        try:
            return self.levels[d]
        except KeyError:
            raise NotASubgroup("%d does not divide %d" % (d, self.N))

    def res_map(self, d_from, d_to):
        """Composite restriction along prime steps, d_to | d_from."""
        if d_from % d_to:
            raise NotASubgroup("%d does not divide %d" % (d_to, d_from))
        return self._along(self.res, accumulate(
            prime_steps(d_from // d_to), floordiv, initial=d_from))

    def tr_map(self, d_from, d_to):
        """Composite transfer along prime steps, d_from | d_to."""
        if d_to % d_from:
            raise NotASubgroup("%d does not divide %d" % (d_from, d_to))
        return self._along(self.tr, accumulate(
            prime_steps(d_to // d_from), mul, initial=d_from))

    def _along(self, maps, path):
        """The composite of maps[(a, b)] over consecutive divisors a, b
        of the path, first step first; the identity on a path of one."""
        path = list(path)
        level = self.level(path[0])
        steps = [maps[pair] for pair in zip(path, path[1:])]
        if not steps:
            return AbHom.identity(level)
        return reduce(lambda out, step: step.compose(out), steps)

    # -- invariant suite

    def validate(self):
        """Check the Mackey laws on the stored maps; raise
        MackeyAxiomFailure naming the first that fails.  In order:
        w^(N/d) = 1, res and tr commute with weyl on covering pairs,
        transitivity around each square of two primes, and the double
        coset law on covering pairs.

        That gives the law on every comparable pair e | d: transitivity
        makes composites independent of the prime path, equivariance on
        covering pairs makes them commute with weyl, and by induction on
        the number of prime factors of d/e, with f = e q for a prime q
        dividing d/e,

            res^d_e tr^d_e = res^f_e (sum_{j<d/f} w_f^(jN/d)) tr^f_e
                           = sum_{j<d/f} sum_{i<f/e} w_e^((j + i d/f) N/d),

        where m = j + i d/f runs once over 0 .. d/e - 1.  A transfer t
        from level d' to d coequalizes the Weyl action, as
        t w_d'^(N/d) = w_d^(N/d) t = t.
        """
        N = self.N
        for d in self.group.divisors:
            w = self.weyl[d]
            # w^(N/d) = 1 makes w^(N/d - 1) an inverse of w, so the
            # isomorphism test only picks the message
            if not w.power(N // d).equal(AbHom.identity(self.level(d))):
                _require(abgroups.is_isomorphism(w), MackeyAxiomFailure,
                         "weyl[%d] not invertible", d)
                raise MackeyAxiomFailure(
                    "weyl[%d] does not have order dividing %d" % (d, N // d))
        pairs = self.group.covering_pairs()
        for (dsub, d) in pairs:
            r = self.res[(d, dsub)]
            t = self.tr[(dsub, d)]
            _require(r.compose(self.weyl[d]).equal(
                self.weyl[dsub].compose(r)), MackeyAxiomFailure,
                "res and weyl do not commute at (%d, %d)", dsub, d)
            _require(self.weyl[d].compose(t).equal(
                t.compose(self.weyl[dsub])), MackeyAxiomFailure,
                "tr and weyl do not commute at (%d, %d)", dsub, d)
        # transitivity: the two prime orders around each square agree
        for d in self.group.divisors:
            for a, b in combinations(sorted(set(prime_steps(d))), 2):
                c = d // (a * b)
                _require(self._along(self.res, (d, d // a, c)).equal(
                    self._along(self.res, (d, d // b, c))),
                    MackeyAxiomFailure, "res transitivity at %d", d)
                _require(self._along(self.tr, (c, d // a, d)).equal(
                    self._along(self.tr, (c, d // b, d))),
                    MackeyAxiomFailure, "tr transitivity at %d", d)
        # the double coset law on covering pairs; the exponents j N/d,
        # j < d/e, stay below N/e, so one running power builds the sum
        for (e, d) in pairs:
            step = self.weyl[e].power(N // d)
            term = rhs = AbHom.identity(self.level(e))
            for _ in range(d // e - 1):
                term = step.compose(term)
                rhs = rhs.add(term)
            _require(self.res[(d, e)].compose(self.tr[(e, d)]).equal(rhs),
                     MackeyAxiomFailure,
                     "double coset law fails at (%d, %d)", e, d)
        return True

    def to_json(self):
        return {
            "N": self.N,
            "levels": {str(d): self.levels[d].to_json()
                       for d in self.group.divisors},
            "res": {"%d<-%d" % (dsub, d): self.res[(d, dsub)].to_json()
                    for (dsub, d) in self.group.covering_pairs()},
            "tr": {"%d->%d" % (dsub, d): self.tr[(dsub, d)].to_json()
                   for (dsub, d) in self.group.covering_pairs()},
            "weyl": {str(d): self.weyl[d].to_json()
                     for d in self.group.divisors},
        }

    @classmethod
    def from_json(cls, data):
        group = CyclicGroupSpec(_json_int(data["N"], "N"))
        levels = {d: FgAbGroup.from_json(data["levels"][str(d)])
                  for d in group.divisors}

        def hom(source, target, table, key):
            return AbHom(levels[source], levels[target], _json_int(
                data[table][key]["matrix"], "%s %s" % (table, key), 2))

        res = {}
        tr = {}
        for (dsub, d) in group.covering_pairs():
            res[(d, dsub)] = hom(d, dsub, "res", "%d<-%d" % (dsub, d))
            tr[(dsub, d)] = hom(dsub, d, "tr", "%d->%d" % (dsub, d))
        weyl = {d: hom(d, d, "weyl", str(d)) for d in group.divisors}
        return cls(group, levels, res, tr, weyl)

    def __repr__(self):
        sizes = ", ".join("%d:%s" % (d, self.levels[d].describe())
                          for d in self.group.divisors)
        return "MackeyFunctor(C%d; %s)" % (self.N, sizes)


class MackeyMap:
    """Levelwise homomorphism commuting with res, tr and weyl."""

    def __init__(self, source, target, components):
        if source.group != target.group:
            raise GroupMismatch("maps need a common group")
        self.source = source
        self.target = target
        self.components = dict(components)
        self.validate()

    def validate(self):
        """Raises MackeyAxiomFailure unless every component commutes
        with weyl, res and tr."""
        src, tgt = self.source, self.target
        for d in src.group.divisors:
            f = self.components[d]
            _require(f.compose(src.weyl[d]).equal(tgt.weyl[d].compose(f)),
                     MackeyAxiomFailure,
                     "component %d does not commute with weyl", d)
        for (dsub, d) in src.group.covering_pairs():
            fd = self.components[d]
            fsub = self.components[dsub]
            _require(fsub.compose(src.res[(d, dsub)]).equal(
                tgt.res[(d, dsub)].compose(fd)), MackeyAxiomFailure,
                "component does not commute with res at (%d, %d)", dsub, d)
            _require(fd.compose(src.tr[(dsub, d)]).equal(
                tgt.tr[(dsub, d)].compose(fsub)), MackeyAxiomFailure,
                "component does not commute with tr at (%d, %d)", dsub, d)
        return True

    def is_levelwise_isomorphism(self):
        return all(abgroups.is_isomorphism(f)
                   for f in self.components.values())

    def is_levelwise_surjection(self):
        return all(abgroups.is_surjective(f)
                   for f in self.components.values())


def _require(ok, exc, message, *args):
    """Validation that survives ``python -O``, unlike ``assert``: raise
    `exc` unless `ok`; the message is formatted only on failure."""
    if not ok:
        raise exc(message % args)


# ---------------------------------------------------------------------------
# the Burnside Mackey functor


def burnside(N):
    """Burnside Mackey functor: level[d] free on the orbits [C_d/C_e].

    tr raises orbits ([C_d'/C_e] -> [C_d/C_e]); res counts orbits of
    the restricted action; the Weyl action is the identity because it
    fixes isomorphism classes of spans.
    """
    group = CyclicGroupSpec(N)
    levels = {d: FgAbGroup.free(len(divisors(d))) for d in group.divisors}
    res = {}
    tr = {}
    for (dsub, d) in group.covering_pairs():
        basis_d = divisors(d)
        basis_sub = divisors(dsub)
        rrows = []
        for e in basis_d:
            g = gcd(e, dsub)
            rrows.append(((basis_sub.index(g), d * g // (e * dsub)),))
        trows = [((basis_d.index(e), 1),) for e in basis_sub]
        res[(d, dsub)] = abgroups._hom(levels[d], levels[dsub], rrows)
        tr[(dsub, d)] = abgroups._hom(levels[dsub], levels[d], trows)
    weyl = {d: AbHom.identity(levels[d]) for d in group.divisors}
    return MackeyFunctor(group, levels, res, tr, weyl)


def burnside_basis_vector(d, e):
    """Coordinate vector of the orbit [C_d/C_e] in level d."""
    basis = divisors(d)
    return unit_vector(len(basis), basis.index(e))


# ---------------------------------------------------------------------------
# fixed points of a group with C_N-action


def fixed_point_levels(A, action, N):
    """Fixed subgroups A^{C_d} with their inclusions into A.

    ``action`` is one automorphism of A of order dividing N (the global
    generator); C_d is generated by its (N/d)-th power.
    """
    if not abgroups.is_isomorphism(action):
        raise ActionOrderInvalid("action is not an automorphism")
    if not action.power(N).equal(AbHom.identity(A)):
        raise ActionOrderInvalid("action order does not divide %d" % N)
    levels = {}
    inclusions = {}
    for d in divisors(N):
        sigma = action.power(N // d)
        kgroup, incl = abgroups.kernel(sigma.sub(AbHom.identity(A)))
        levels[d] = kgroup
        inclusions[d] = incl
    return levels, inclusions


def _factor_through_inclusion(vec, incl):
    pre = abgroups.preimage(incl, vec)
    if pre is None:
        raise InternalInvariantFailure(
            "element does not lie in the fixed subgroup")
    return pre


def fixed_point_mackey(A, action, N):
    """Mackey functor of fixed points of a C_N-action on A.

    res is the inclusion of fixed points, tr the sum over coset
    representatives, weyl the induced generator action.
    """
    return _fixed_point_mackey(A, action, N)[0]


def _fixed_point_mackey(A, action, N):
    """fixed_point_mackey together with the level inclusions into A."""
    levels, inclusions = fixed_point_levels(A, action, N)
    group = CyclicGroupSpec(N)
    # row i of an inclusion matrix is the image of generator i in A
    res = {}
    tr = {}
    weyl = {}
    for d in group.divisors:
        rows = [_factor_through_inclusion(action.apply(x), inclusions[d])
                for x in inclusions[d].matrix]
        weyl[d] = AbHom(levels[d], levels[d], rows)
    for (dsub, d) in group.covering_pairs():
        rows = [_factor_through_inclusion(x, inclusions[dsub])
                for x in inclusions[d].matrix]
        res[(d, dsub)] = AbHom(levels[d], levels[dsub], rows)
        trows = []
        for x in inclusions[dsub].matrix:
            acc = A.zero()
            for j in range(d // dsub):
                acc = A.add(acc, action.power((j * (N // d)) % N).apply(x))
            trows.append(_factor_through_inclusion(acc, inclusions[d]))
        tr[(dsub, d)] = AbHom(levels[dsub], levels[d], trows)
    return MackeyFunctor(group, levels, res, tr, weyl), inclusions


# ---------------------------------------------------------------------------
# box product


class BoxProduct(MackeyFunctor):
    """Day convolution of two Mackey functors over the same group.

    level[d] is generated by symbols g_e(x_i (x) y_j) for e | d and
    generators x_i, y_j of the factor levels at e, modulo bilinearity,
    Weyl stabilization by C_d/C_e, and the Frobenius relations
    g_e(tr x (x) y) = g_e'(x (x) res y) and its mirror.  tr keeps
    symbols, weyl acts diagonally, res is the double coset expansion.
    """

    def __init__(self, left, right):
        if left.group != right.group:
            raise GroupMismatch("box product needs a common group")
        group = left.group
        self.group = group  # needed by the relation builders below
        self.factors = (left, right)
        symbols = {}
        offsets = {}
        for d in group.divisors:
            syms = []
            offs = {}
            for e in divisors(d):
                offs[e] = len(syms)
                for i in range(left.level(e).ngens):
                    for j in range(right.level(e).ngens):
                        syms.append((e, i, j))
            symbols[d] = syms
            offsets[d] = offs
        self.symbols = symbols
        self._offsets = offsets

        levels = {d: abgroups._group(len(symbols[d]), self._relations(d))
                  for d in group.divisors}
        res = {}
        tr = {}
        weyl = {}
        # the maps of the box are checked like the public constructor's
        hom = abgroups._checked_hom
        for d in group.divisors:
            rows = [tuple(self._expand(d, e, left.weyl[e]._rows[i],
                                       right.weyl[e]._rows[j]).items())
                    for (e, i, j) in symbols[d]]
            weyl[d] = hom(levels[d], levels[d], rows)
        memo = {}  # factor images shared by the _res_rows calls below
        for (dsub, d) in group.covering_pairs():
            trows = [((self._index(d, e, i, j), 1),)
                     for (e, i, j) in symbols[dsub]]
            tr[(dsub, d)] = hom(levels[dsub], levels[d], trows)
            res[(d, dsub)] = hom(levels[d], levels[dsub],
                                 self._res_rows(d, dsub, memo))
        super().__init__(group, levels, res, tr, weyl)

    # symbol bookkeeping

    def _index(self, d, e, i, j):
        right = self.factors[1]
        return self._offsets[d][e] + i * right.level(e).ngens + j

    def _expand(self, d, e, xs, ys):
        """Bilinear expansion of g_e(x (x) y) over the symbols at level d,
        as a sparse row {symbol: value}; x and y come as their non-zero
        ``(index, value)`` pairs."""
        base = self._offsets[d][e]
        width = self.factors[1].level(e).ngens
        return {base + i * width + j: x * y for i, x in xs for j, y in ys}

    def _relations(self, d):
        """The relation rows of level d, sparse: tuples of
        ``(symbol, value)`` pairs."""
        left, right = self.factors
        N = self.group.N
        rels = []
        for e in divisors(d):
            gl = left.level(e)
            gr = right.level(e)
            # bilinearity against the presentations of the factors
            for rel in gl._rels:
                for j in range(gr.ngens):
                    rels.append(self._expand(d, e, rel, ((j, 1),)))
            for rel in gr._rels:
                for i in range(gl.ngens):
                    rels.append(self._expand(d, e, ((i, 1),), rel))
            # Weyl stabilization by the generator of C_d/C_e
            if e != d:
                wl = left.weyl[e].power(N // d)._rows
                wr = right.weyl[e].power(N // d)._rows
                for i in range(gl.ngens):
                    for j in range(gr.ngens):
                        row = self._expand(d, e, wl[i], wr[j])
                        _add_entry(row, self._index(d, e, i, j), -1)
                        rels.append(row)
            # Frobenius relations along covering pairs below e; the two
            # sides lie in the disjoint symbol blocks of e and esub
            for q in sorted(set(prime_steps(e))):
                esub = e // q
                trl = left.tr[(esub, e)]._rows
                trr = right.tr[(esub, e)]._rows
                rsl = left.res[(e, esub)]._rows
                rsr = right.res[(e, esub)]._rows
                for i in range(left.level(esub).ngens):
                    for j in range(gr.ngens):
                        row = self._expand(d, e, trl[i], ((j, 1),))
                        for k, x in self._expand(d, esub, ((i, 1),),
                                                 rsr[j]).items():
                            row[k] = -x
                        rels.append(row)
                for i in range(gl.ngens):
                    for j in range(right.level(esub).ngens):
                        row = self._expand(d, e, ((i, 1),), trr[j])
                        for k, x in self._expand(d, esub, rsl[i],
                                                 ((j, 1),)).items():
                            row[k] = -x
                        rels.append(row)
        return [tuple(row.items()) for row in rels if row]

    def _res_rows(self, d, dsub, memo):
        """Double coset expansion of res from level d to level dsub, one
        sparse row per symbol of level d.  Terms of the expansion with
        the same images are expanded once, times their multiplicity.

        ``memo`` caches the images below for the rows of one
        construction; the factors must not change while it is in use.
        """
        N = self.group.N
        rows = []
        for e in divisors(d):
            g = gcd(e, dsub)
            terms = Counter(self._res_images(e, g, t * (N // d) % (N // g),
                                             memo)
                            for t in range(d * g // (e * dsub)))
            for i in range(self.factors[0].level(e).ngens):
                for j in range(self.factors[1].level(e).ngens):
                    row = {}
                    for (xs, ys), m in terms.items():
                        for k, x in self._expand(dsub, g, xs[i],
                                                 ys[j]).items():
                            _add_entry(row, k, m * x)
                    rows.append(tuple(row.items()))
        return rows

    def _res_images(self, e, g, shift, memo):
        """The images of the generators of both factors at level e under
        res to level g and then the Weyl power ``shift``, as sparse rows:
        (left images, right images)."""
        key = (e, g, shift)
        if key not in memo:
            memo[key] = tuple(factor.weyl[g].power(shift).compose(
                factor.res_map(e, g))._rows for factor in self.factors)
        return memo[key]

    def pure_tensor(self, d, e, xvec, yvec):
        """Element g_e(x (x) y) of level d, for x, y at level e | d."""
        out = [0] * len(self.symbols[d])
        for k, x in self._expand(d, e, _sparse(xvec), _sparse(yvec)).items():
            out[k] = x
        return tuple(out)


def _add_entry(row, k, x):
    """row[k] += x in a sparse row, dropping the entry when it is 0."""
    y = row.get(k, 0) + x
    if y:
        row[k] = y
    else:
        del row[k]


def box_product(left, right):
    return BoxProduct(left, right)


def box_unit_map(box, module):
    """Canonical map burnside(N) [] M -> M for a BoxProduct with the
    Burnside functor on the left; a levelwise isomorphism."""
    @cache
    def images(e, f, d):
        # the orbit [C_e/C_f] acts by tr res through level f
        return module.tr_map(f, d).compose(module.res_map(e, f))._rows

    comps = {}
    for d in box.group.divisors:
        rows = [images(e, divisors(e)[i], d)[j]
                for (e, i, j) in box.symbols[d]]
        comps[d] = abgroups._checked_hom(box.level(d), module.level(d), rows)
    return MackeyMap(box, module, comps)


def box_symmetry_map(box, flipped):
    """Canonical isomorphism M [] N -> N [] M on symbols."""
    comps = {}
    for d in box.group.divisors:
        rows = [((flipped._index(d, e, j, i), 1),)
                for (e, i, j) in box.symbols[d]]
        comps[d] = abgroups._checked_hom(box.level(d), flipped.level(d),
                                         rows)
    return MackeyMap(box, flipped, comps)


def box_associativity_map(left_assoc, right_assoc):
    """Canonical map (M [] N) [] P -> M [] (N [] P) on symbols.

    A symbol g_e(g_f(x (x) y) (x) z) is sent, via the Frobenius
    relation, to g_f(x (x) g_f(y (x) res z)).
    """
    mn = left_assoc.factors[0]       # BoxProduct of (M, N)
    p_fun = left_assoc.factors[1]
    np_box = right_assoc.factors[1]  # BoxProduct of (N, P)
    comps = {}
    for d in left_assoc.group.divisors:
        rows = []
        for (e, u, l) in left_assoc.symbols[d]:
            # u indexes a symbol g_f(x_i (x) y_j) of (M [] N).level(e)
            (f, i, j) = mn.symbols[e][u]
            inner = np_box._expand(f, f, ((j, 1),),
                                   p_fun.res_map(e, f)._rows[l])
            rows.append(tuple(right_assoc._expand(
                d, f, ((i, 1),), inner.items()).items()))
        comps[d] = abgroups._checked_hom(left_assoc.level(d),
                                         right_assoc.level(d), rows)
    return MackeyMap(left_assoc, right_assoc, comps)


# ---------------------------------------------------------------------------
# change of group


def restrict_to_subgroup(M, h):
    """Restriction to C_h; the generator of C_h is the (N/h)-th power
    of the chosen generator of C_N, so weyl gets raised to that power."""
    if M.N % h:
        raise NotASubgroup("%d does not divide %d" % (h, M.N))
    group = CyclicGroupSpec(h)
    levels = {d: M.level(d) for d in group.divisors}
    res = {(d, dsub): M.res[(d, dsub)] for (dsub, d) in group.covering_pairs()}
    tr = {(dsub, d): M.tr[(dsub, d)] for (dsub, d) in group.covering_pairs()}
    weyl = {d: M.weyl[d].power(M.N // h) for d in group.divisors}
    return MackeyFunctor(group, levels, res, tr, weyl)


def zeta(M, m):
    """Reindex along C_N -> C_N/C_m: level[d] of the result is
    M.level[d*m].  The canonical projection sends generator to
    generator, so the stored weyl matrices carry over unchanged."""
    if M.N % m:
        raise NotASubgroup("%d does not divide %d" % (m, M.N))
    group = CyclicGroupSpec(M.N // m)
    levels = {d: M.level(d * m) for d in group.divisors}
    res = {(d, dsub): M.res[(d * m, dsub * m)]
           for (dsub, d) in group.covering_pairs()}
    tr = {(dsub, d): M.tr[(dsub * m, d * m)]
          for (dsub, d) in group.covering_pairs()}
    weyl = {d: M.weyl[d * m] for d in group.divisors}
    return MackeyFunctor(group, levels, res, tr, weyl)


def quotient(M, levels):
    """M modulo added relations: ``levels[d]`` presents a quotient of
    ``M.level(d)`` on the same generators.  Returns (functor, projection);
    raises ValueError when res, tr or weyl does not descend."""
    def descend(src, tgt, hom):
        return abgroups._checked_hom(levels[src], levels[tgt], hom._rows)

    weyl = {d: descend(d, d, hom) for d, hom in M.weyl.items()}
    res = {key: descend(*key, hom) for key, hom in M.res.items()}
    tr = {key: descend(*key, hom) for key, hom in M.tr.items()}
    Q = MackeyFunctor(M.group, levels, res, tr, weyl)
    proj = MackeyMap(M, Q, {d: abgroups._hom(M.level(d), q,
                                             abgroups._unit_rows(q.ngens))
                            for d, q in levels.items()})
    return Q, proj


def geometric_fixed_points(M, m):
    """Brauer quotient model of the C_m-geometric fixed points.

    level[d] = M.level[d*m] / sum of transfer images from levels e with
    e | d*m and m not dividing e.  Returns (functor, projection) where
    the projection realizes the canonical map zeta -> Phi.
    """
    if M.N % m:
        raise NotASubgroup("%d does not divide %d" % (m, M.N))
    if m != 1 and len(set(prime_steps(m))) != 1:
        raise ValueError("geometric fixed points need a prime power order")
    source = zeta(M, m)
    levels = {}
    for d in source.group.divisors:
        extra = [row for e in divisors(d * m) if e % m
                 for row in M.tr_map(e, d * m)._rows]
        levels[d] = abgroups._quotient(source.level(d), extra)[0]
    return quotient(source, levels)


def weyl_coinvariants(M, d):
    """Level d modulo x - weyl(x); returns (group, projection)."""
    return abgroups.quotient_by_endomorphism_family(
        M.level(d), [M.weyl[d]])
