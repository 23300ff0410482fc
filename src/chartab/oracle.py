"""Permutation-group oracle: character tables rebuilt from scratch.

This module recomputes character tables by a route that shares nothing
with the closed-form generators in `chartab.tables`: enumerate a
permutation group from its generators, split it into conjugacy classes,
and diagonalize the class-algebra multiplication matrices over a prime
field, lifting eigenvalue data back to exact cyclotomic values.  The two
routes meeting entry-for-entry is the correctness argument for both.

The modular step runs at one prime, which always serves (Dixon, Numer.
Math. 10, 1967): the least p = 1 mod the exponent e with p^2 > 4|G|.  The
primes of |G| divide e, so p does not divide |G|, and F_p holds the e-th
roots of unity, so the central idempotents of the group algebra, whose
coefficients lie in Z[1/|G|, zeta_e], reduce to r orthogonal ones: the
centre of F_p G is F_p^r.  So every class matrix is diagonalizable on
each common eigenspace, and the split ends one-dimensional; each norm
|G|/chi(1)^2 is a unit; chi(1)^2 <= |G| < p^2/4 puts chi(1) below p/2,
where its square determines it; and each multiplicity of the lift is an
integer in [0, chi(1)], below p, so its residue does too.  A failed check
is a bug, never an unlucky prime: it raises `OracleInconsistencyError`,
as does a table that `validate_table` rejects.

Costs: enumeration takes |G| times the number of generators in
permutation products, hence the hard element limit; classes are sorted
as orbits, never element by element.  Class matrix i takes |K_i| r
products, is kept as its nonzero entries (about r of its r^2 on the
2-groups), and is built only when the split first reaches class i; the
split stops once every space is one-dimensional.  An eigenspace split of
a d-dimensional subspace maps its basis through the class-matrix entries
in its d pivot rows only, reads the eigenvalues off the characteristic
polynomial of the d x d restriction (O(d^3), then O(p d) to find the
roots in F_p) and runs one kernel per eigenvalue; the class matrices
commute, so no split re-checks invariance.
The lift runs once per conjugacy class of cyclic subgroups, as a
transform of length o = the order of its generator for all r characters
at once: each of its o kernel rows is built once and held alone, and
each multiplicity is one C-level dot product, O(o^2) multiplications per
character.  Each distinct exponent -> multiplicity map is canonicalized
once, not once per cell, and its cells share the value.  The classes of
the powers g^t the lift reads are found by multiplying the
representative g, o - 1 permutation products.

`compare_tables` decides whether two tables differ only by relabeling of
classes and characters, which is the honest notion of equality between a
generated table and an oracle table: neither naming scheme survives the
round trip; its search compares one integer id per row per class tried.
"""

from __future__ import annotations

from collections import Counter
from math import gcd, isqrt, lcm
from operator import itemgetter, mul

from chartab.exactnum import (
    ChartabError,
    Record,
    canonicalize,
    prime_1_mod,
    root_of_unity,
)
from chartab.tables import (
    CharacterTable,
    ClassInfo,
    Dihedral,
    Extraspecial2,
    FamilySpec,
    InvalidParameterError,
    Product,
    count_past,
    log2_floor,
    single_family,
    spec_group_order,
    validate_table,
)

GROUP_LIMIT = 2 * 10**5

Perm = tuple[int, ...]


class OracleInconsistencyError(ChartabError):
    """A failed check of the modular algorithm: a bug, as none can fail at Dixon's prime."""


class GroupTooLargeError(ChartabError):
    """A group past the element limit: a family by its order, any group by its closure."""


class PermGroup(Record):
    degree: int
    generators: tuple[Perm, ...]

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise InvalidParameterError(f"degree must be at least 1, got {self.degree}")
        expected = frozenset(range(self.degree))
        for g in self.generators:
            if len(g) != self.degree or frozenset(g) != expected:
                raise InvalidParameterError(
                    f"{g!r} is not a permutation of 0..{self.degree - 1}"
                )


# ---------------------------------------------------------------------------
# permutation arithmetic


def _mul(p: Perm, q: Perm) -> Perm:
    """Left-to-right function composition: apply q, then p.

    `itemgetter` indexes in C; with one index it returns a bare int, so
    degree 1 (only the identity) is answered directly."""
    if len(q) == 1:
        return p
    return itemgetter(*q)(p)


def _invert(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, pi in enumerate(p):
        out[pi] = i
    return tuple(out)


def _perm_order(p: Perm) -> int:
    seen = [False] * len(p)
    order = 1
    for start in range(len(p)):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = p[i]
            length += 1
        order = lcm(order, length)
    return order


# ---------------------------------------------------------------------------
# enumeration and conjugacy classes


class ClassData(Record):
    """Conjugacy classes in canonical order, with their members; class_of sends each
    element to its class, so the class of a power of a representative is one lookup."""

    group_order: int
    representatives: tuple[Perm, ...]
    sizes: tuple[int, ...]
    element_orders: tuple[int, ...]
    class_of: dict[Perm, int]
    members: tuple[set[Perm], ...]

    @property
    def num_classes(self) -> int:
        return len(self.representatives)

    @property
    def exponent(self) -> int:
        return lcm(*self.element_orders)


def check_group_limit(spec: FamilySpec) -> None:
    """Refuse a family whose order is above the element limit, before any
    permutation realization of it is built; `count_past` decides, so an
    order the parameters put at 2^60 or more is never built."""
    b = log2_floor(spec, order=True)
    if named := count_past(b, lambda: spec_group_order(spec), GROUP_LIMIT):
        raise GroupTooLargeError(
            f"group would have {named} elements, above the guard {GROUP_LIMIT}"
        )


def _enumerate_elements(group: PermGroup) -> set[Perm]:
    """The group's elements, by breadth-first search from the identity.

    `count_past` decides the element guard once per layer, after the
    layer is added, so a group of more than `GROUP_LIMIT` elements is
    refused and no other is.  A layer starts from at most `GROUP_LIMIT`
    elements and adds at most |generators| x `GROUP_LIMIT` more before its
    check.
    """
    identity = tuple(range(group.degree))
    seen = {identity}
    frontier = [identity]
    while frontier:
        fresh = []
        for x in frontier:
            for g in group.generators:
                y = _mul(x, g)
                if y not in seen:
                    seen.add(y)
                    fresh.append(y)
        if count_past(0, seen.__len__, GROUP_LIMIT):
            raise GroupTooLargeError(f"group has more than {GROUP_LIMIT} elements")
        frontier = fresh
    return seen


def enumerate_and_classify(group: PermGroup) -> ClassData:
    """Enumerate the group and partition it into conjugacy classes.

    Classes are ordered identity first, then by (size, element order,
    lexicographically smallest member); the representative of each class
    is that smallest member, so the result is a pure function of the
    group, independent of generator order.  Orbits, not elements, are
    sorted.  A group with more elements than `GROUP_LIMIT` (200000)
    raises `GroupTooLargeError` during enumeration.
    """
    remaining = _enumerate_elements(group)
    group_order = len(remaining)
    gens = group.generators
    ginvs = [_invert(g) for g in gens]
    keyed = []
    while remaining:
        x = remaining.pop()
        orbit = {x}
        frontier = [x]
        while frontier:
            z = frontier.pop()
            for g, gi in zip(gens, ginvs):
                w = _mul(g, _mul(z, gi))
                if w not in orbit:
                    orbit.add(w)
                    frontier.append(w)
        remaining -= orbit
        rep = min(orbit)
        keyed.append(((len(orbit), _perm_order(rep), rep), orbit))
    # only the identity has size 1 and order 1, so it sorts first
    keyed.sort(key=itemgetter(0))
    class_of = {x: idx for idx, (_, orbit) in enumerate(keyed) for x in orbit}
    sizes, orders, reps = zip(*(key for key, _ in keyed))
    return ClassData(group_order, reps, sizes, orders, class_of, tuple(o for _, o in keyed))


# ---------------------------------------------------------------------------
# linear algebra mod p


def _rref(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form mod p; returns (nonzero rows, pivot columns)."""
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    rank = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(rank, len(rows)) if rows[i][col] % p), None)
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        lead = rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                c = rows[i][col]
                rows[i] = [(x - c * y) % p for x, y in zip(rows[i], lead)]
        pivots.append(col)
        rank += 1
        if rank == len(rows):
            break
    return rows[:rank], pivots


def _kernel(mat: list[list[int]], p: int) -> list[list[int]]:
    """Basis of {v : mat v = 0} mod p, for a square matrix."""
    rows, pivots = _rref(mat, p)
    d = len(mat)
    basis = []
    pivot_set = set(pivots)
    for free_col in range(d):
        if free_col in pivot_set:
            continue
        v = [0] * d
        v[free_col] = 1
        for row, pc in zip(rows, pivots):
            v[pc] = -row[free_col] % p
        basis.append(v)
    return basis


def _charpoly(mat: list[list[int]], p: int) -> list[int]:
    """Characteristic polynomial of a square matrix mod p, lowest
    coefficient first.

    The matrix is brought to upper Hessenberg form by similarity
    transforms, and the polynomial follows from the Hessenberg recurrence:
    O(d^3) operations, deterministic.
    """
    d = len(mat)
    h = [[x % p for x in row] for row in mat]
    for m in range(1, d - 1):
        i = next((i for i in range(m, d) if h[i][m - 1]), None)
        if i is None:
            continue
        if i != m:
            h[i], h[m] = h[m], h[i]
            for row in h:
                row[i], row[m] = row[m], row[i]
        inv = pow(h[m][m - 1], p - 2, p)
        for i in range(m + 1, d):
            u = h[i][m - 1] * inv % p
            if not u:
                continue
            # row_i -= u row_m, then column_m += u column_i keeps similarity
            h[i] = [(x - u * y) % p for x, y in zip(h[i], h[m])]
            for row in h:
                row[m] = (row[m] + u * row[i]) % p
    # polys[m] is the characteristic polynomial of the leading m x m block
    polys = [[1]]
    for m in range(d):
        poly = [0] + polys[m]
        for t, c in enumerate(polys[m]):
            poly[t] = (poly[t] - h[m][m] * c) % p
        chain = 1
        for i in range(1, m + 1):
            chain = chain * h[m - i + 1][m - i] % p
            factor = h[m - i][m] * chain % p
            if factor:
                for t, c in enumerate(polys[m - i]):
                    poly[t] = (poly[t] - factor * c) % p
        polys.append(poly)
    return polys[d]


def _eigenvalues(mat: list[list[int]], p: int) -> list[int]:
    """The distinct eigenvalues in F_p of a square matrix, ascending: the
    roots of its characteristic polynomial, found by evaluating it at every
    element of F_p."""
    coeffs = _charpoly(mat, p)[::-1]
    roots = []
    for lam in range(p):
        acc = 0
        for c in coeffs:
            acc = (acc * lam + c) % p
        if not acc:
            roots.append(lam)
    return roots


def _combine(coeffs: list[int], basis: list[list[int]], p: int) -> list[int]:
    """The linear combination sum_s coeffs[s] * basis[s], reduced mod p."""
    acc = [0] * len(basis[0])
    for c, vec in zip(coeffs, basis):
        if c:
            acc = [x + c * y for x, y in zip(acc, vec)]
    return [x % p for x in acc]


def _split_subspace(basis, pivots, mat, p):
    """Split an invariant subspace into eigenspaces of mat.

    basis is in reduced row echelon form, so coordinates of any vector in
    the subspace can be read off its pivot columns.  mat is a class matrix
    as its nonzero (row, col, count) entries; the image of each basis
    vector is read only at the pivot columns, so it costs one pass over
    the entries whose row is a pivot column, and those coordinates are a
    column of the d x d restriction.  The eigenvalues of the restriction
    are the roots of its characteristic polynomial, and each eigenvalue,
    ascending, costs one kernel.  Returns a list of (basis, pivots) pieces.

    The subspace is never checked for invariance, as it always is: matrix
    i has entry a_ij^k in row j, column k, where K_i K_j = sum_k a_ij^k K_k,
    and the class algebra is commutative and associative, so
    sum_m a_ij^m a_lm^k = sum_m a_lj^m a_im^k, that is M_i M_l = M_l M_i
    over the integers and mod p.  An eigenspace of one M_l on a subspace
    invariant under every M_i is again invariant: M_l M_i v = lam M_i v.
    """
    d = len(basis)
    # only the pivot coordinates of an image are read, so only the entries
    # in a pivot row are mapped; at[row] is the row's place among the pivots
    at = {pc: i for i, pc in enumerate(pivots)}
    read = [(at[row], col, count) for row, col, count in mat if row in at]
    images = []
    for bvec in basis:
        image = [0] * d
        for i, col, count in read:
            image[i] += count * bvec[col]
        images.append(image)
    # the transposed restriction: its right eigenvectors give coefficient
    # vectors over the subspace basis
    transposed = [[image[i] % p for image in images] for i in range(d)]
    lam = transposed[0][0]
    if all(transposed[i][j] == (lam if i == j else 0) for i in range(d) for j in range(d)):
        return [(basis, pivots)]  # scalar: the whole subspace is one eigenspace
    pieces = []
    found = 0
    for lam in _eigenvalues(transposed, p):
        shifted = [
            [(transposed[i][j] - (lam if i == j else 0)) % p for j in range(d)]
            for i in range(d)
        ]
        ker = _kernel(shifted, p)
        pieces.append(_rref([_combine(c, basis, p) for c in ker], p))
        found += len(ker)
    if found != d:
        raise OracleInconsistencyError(f"a class matrix is not diagonalizable mod {p}")
    return pieces


def _class_matrix(data: ClassData, i: int) -> list[tuple[int, int, int]]:
    """Class matrix i as its nonzero (row j, col k, count) entries: count is
    the number of pairs (x, y) with x in class i, y in class j, and x*y the
    representative of class k.  The count is independent of which member
    of class k is fixed."""
    reps, class_of = data.representatives, data.class_of
    entries = Counter()
    for x in data.members[i]:
        xi = _invert(x)
        for k, z in enumerate(reps):
            entries[class_of[_mul(xi, z)], k] += 1
    return [(j, k, c) for (j, k), c in entries.items()]


def _common_eigenvectors(data: ClassData, p: int) -> list[list[int]]:
    """The one-dimensional common eigenspaces of the class matrices, each
    matrix built when the split first reaches its class."""
    r = data.num_classes
    full = [[1 if j == i else 0 for j in range(r)] for i in range(r)]
    subspaces = [(full, list(range(r)))]
    for i in range(1, r):  # class 0 is the identity, its matrix scalar
        if all(len(basis) == 1 for basis, _ in subspaces):
            break
        mat = _class_matrix(data, i)
        refined = []
        for basis, pivots in subspaces:
            if len(basis) == 1:
                refined.append((basis, pivots))
            else:
                refined.extend(_split_subspace(basis, pivots, mat, p))
        subspaces = refined
    if any(len(basis) != 1 for basis, _ in subspaces):
        raise OracleInconsistencyError(f"the class matrices leave a common eigenspace mod {p}")
    return [basis[0] for basis, _ in subspaces]


# ---------------------------------------------------------------------------
# the modular character table algorithm


def _cyclic_subgroup_classes(data: ClassData):
    """One entry per conjugacy class of cyclic subgroups <g>.

    Each entry is (seq, members): seq[t] is the class of g^t for t below
    the order o of g, read by multiplying the representative g (o - 1
    products), and members lists (k, a) for every class k whose
    representative is conjugate to g^a with gcd(a, o) = 1, with the
    smallest such a.
    """
    claimed = [False] * data.num_classes
    out = []
    for k, g in enumerate(data.representatives):
        if claimed[k]:
            continue
        o = data.element_orders[k]
        seq = [0]  # g^0 is the identity, class 0
        power = g
        for _ in range(1, o):
            seq.append(data.class_of[power])
            power = _mul(power, g)
        members = []
        for a in range(o):
            if gcd(a, o) == 1 and not claimed[seq[a]]:
                claimed[seq[a]] = True
                members.append((seq[a], a))
        out.append((seq, members))
    return out


def _multiplicities(rows: list[list[int]], zeta_inv: int, p: int) -> list[dict[int, int]]:
    """The transform that lifts a character on a cyclic subgroup <g>.

    Each row holds the residues of chi(g^t), t < o, and zeta_inv is the
    inverse of a primitive o-th root of unity zeta in F_p; the result maps
    each j with m_j nonzero to m_j = (1/o) sum_t chi(g^t) zeta^(-jt) mod p,
    one dict per row.  Kernel row j, the powers zeta^(-jt), is built once,
    read off the o powers of zeta_inv at j t mod o, and serves every row as
    one C-level dot product; no o x o matrix is held.
    """
    o = len(rows[0])
    powers = [pow(zeta_inv, t, p) for t in range(o)]
    o_inverse = pow(o, p - 2, p)
    out = [{} for _ in rows]
    for j in range(o):
        kernel = list(map(powers.__getitem__, map(o.__rmod__, map(j.__mul__, range(o)))))
        for row, multiplicity in zip(rows, out):
            m_j = sum(map(mul, row, kernel)) % p * o_inverse % p
            if m_j:
                multiplicity[j] = m_j
    return out


def _table_mod(data: ClassData, p: int) -> CharacterTable:
    """The table computed mod Dixon's prime p.

    Common eigenvectors of the class matrices give the central characters
    omega, and orthogonality gives each degree.  The lift then runs one
    transform per conjugacy class of cyclic subgroups <g> of order o, for
    every character at once (`_multiplicities`): the residues of chi(g^t),
    t < o, transformed against o-th roots of unity in F_p, are the
    multiplicities m_j of zeta_o^j in chi(g).  This is the exponent-length
    transform of the same (o-periodic) sequence, which vanishes off
    multiples of exponent/o, so nothing is approximated.  A class conjugate
    to g^a with gcd(a, o) = 1 takes the same multiplicities at j*a mod o.
    Each distinct exponent -> multiplicity map is canonicalized once, and
    the cells it fills share the one value.
    """
    r = data.num_classes
    exponent = data.exponent
    cyclic = _cyclic_subgroup_classes(data)
    vectors = _common_eigenvectors(data, p)
    inverse_class = [data.class_of[_invert(rep)] for rep in data.representatives]
    size_inverse = [pow(s, p - 2, p) for s in data.sizes]
    order_residue = data.group_order % p

    # each character's degree and residue row
    characters = []
    for v in vectors:
        if v[0] % p == 0:
            raise OracleInconsistencyError(f"an eigenvector vanishes at class 0 mod {p}")
        scale = pow(v[0], p - 2, p)
        omega = [x * scale % p for x in v]
        norm = (
            sum(omega[k] * omega[inverse_class[k]] * size_inverse[k] for k in range(r))
            % p
        )
        if norm == 0:
            raise OracleInconsistencyError(f"a character norm vanishes mod {p}")
        degree_sq = order_residue * pow(norm, p - 2, p) % p
        degree = next(
            (t for t in range(1, (p + 1) // 2) if t * t % p == degree_sq), None
        )
        if degree is None:
            raise OracleInconsistencyError(f"a degree has no square root below {p}/2")
        residues = [degree * omega[k] % p * size_inverse[k] % p for k in range(r)]
        characters.append((degree, residues))

    # any primitive root of unity serves: another one conjugates every
    # lifted row by one Galois automorphism, which permutes the rows, and
    # the rows are sorted below
    zeta_inv = pow(root_of_unity(exponent, p), -1, p)
    rows = [(degree, [None] * r) for degree, _ in characters]
    lifted = {}  # exponent -> multiplicity map, as a frozenset, to its value
    for seq, members in cyclic:
        o = len(seq)
        stride = exponent // o
        transforms = _multiplicities(
            [list(map(residues.__getitem__, seq)) for _, residues in characters],
            pow(zeta_inv, stride, p),
            p,
        )
        for (degree, values), multiplicity in zip(rows, transforms):
            if sum(multiplicity.values()) != degree:
                raise OracleInconsistencyError(f"multiplicities miss the degree mod {p}")
            for k, a in members:
                raw = {j * a % o * stride: m for j, m in multiplicity.items()}
                key = frozenset(raw.items())
                value = lifted.get(key)
                if value is None:
                    value = lifted[key] = canonicalize(exponent, raw)
                values[k] = value
    for degree, values in rows:
        if not values[0].is_rational or values[0].as_rational() != degree:
            raise OracleInconsistencyError(f"a lifted degree is not the degree mod {p}")

    rows.sort(key=lambda item: (item[0], tuple(v.key() for v in item[1])))
    classes = tuple(
        ClassInfo(f"c{k}", data.sizes[k], data.element_orders[k]) for k in range(r)
    )
    return CharacterTable.from_values(
        group_name=f"perm(deg={len(data.representatives[0])}, order={data.group_order})",
        group_order=data.group_order,
        classes=classes,
        character_names=tuple(f"x{i}" for i in range(r)),
        characters=[values for _, values in rows],
    )


def dixon_character_table(group: PermGroup) -> CharacterTable:
    """Compute the full character table of a permutation group.

    Output classes are named c0, c1, ... in the canonical class order of
    `enumerate_and_classify`; characters are named x0, x1, ... sorted by
    (degree, value tuple).  The result is validated against the standard
    table identities before being returned; any failed check raises
    `OracleInconsistencyError`.
    """
    data = enumerate_and_classify(group)
    # Dixon's prime: p^2 > 4|G| exactly when p > isqrt(4|G|)
    table = _table_mod(data, prime_1_mod(data.exponent, isqrt(4 * data.group_order)))
    report = validate_table(table)
    if not report:
        raise OracleInconsistencyError(f"oracle produced an invalid table: {report.failure}")
    return table


# ---------------------------------------------------------------------------
# built-in permutation realizations of the table families


def _psl2_perm_group(r: int) -> PermGroup:
    """PSL(2, q), q = 2^r, on the projective line: point 0 is infinity and
    point 1 + a is the field element a.

    The field is GF(2)[x] modulo the least odd polynomial of degree r in
    which x has order q - 1: every nonzero residue is then a power of x, so
    the residues form GF(q), with exp[i] = x^i and log its inverse.  The
    generators are z -> z + 1, z -> 1/z and, for q > 2, z -> x^2 z; squaring
    is onto, so conjugating the translation by the powers of x^2 reaches
    every translation.
    """
    q = 1 << r
    for poly in range(q + 1, 2 * q, 2):
        exp = [1]
        for _ in range(q - 2):
            a = exp[-1] << 1
            exp.append(a ^ poly if a & q else a)
        log = {a: i for i, a in enumerate(exp)}
        if len(log) == q - 1:  # x^0, ..., x^(q-2) are distinct
            break
    gens = [
        (0, *(1 + (a ^ 1) for a in range(q))),
        (1, 0, *(1 + exp[-log[a] % (q - 1)] for a in range(1, q))),
    ]
    if q > 2:
        gens.append((0, 1, *(1 + exp[(log[a] + 2) % (q - 1)] for a in range(1, q))))
    return PermGroup(q + 1, tuple(gens))


def _extraspecial_perm_group(n: int) -> PermGroup:
    dim = 2 * n
    size = 1 << (dim + 1)

    def cocycle(a: int, b: int) -> int:
        return bin((a >> n) & b).count("1") & 1

    gens = []
    for i in range(dim):
        basis_vec = 1 << i
        image = [0] * size
        for w in range(1 << dim):
            shift = cocycle(basis_vec, w)
            for d in (0, 1):
                image[w * 2 + d] = (basis_vec ^ w) * 2 + (d ^ shift)
        gens.append(tuple(image))
    return PermGroup(size, tuple(gens))


def builtin_perm_group(spec: FamilySpec) -> PermGroup:
    """A faithful permutation realization of a family spec.

    Dihedral groups act on the vertices of the polygon (n = 1, the Klein
    group, needs two 2-point blocks instead); extraspecial groups act on
    themselves by left translation; the linear groups act on the
    projective line; products act on the disjoint union of the factors'
    points.  The element limit is checked first (`check_group_limit`).
    """
    check_group_limit(spec)
    if isinstance(spec, Product):
        parts = [builtin_perm_group(f) for f in spec.factors]
        if not parts:
            return PermGroup(1, ())
        degree = sum(part.degree for part in parts)
        gens = []
        offset = 0
        for part in parts:
            for g in part.generators:
                image = list(range(degree))
                for i, gi in enumerate(g):
                    image[offset + i] = offset + gi
                gens.append(tuple(image))
            offset += part.degree
        return PermGroup(degree, tuple(gens))
    _, p = single_family(spec)
    if isinstance(spec, Dihedral):
        if p == 1:
            return PermGroup(4, ((1, 0, 2, 3), (0, 1, 3, 2)))
        m = 1 << p
        rotate = tuple((i + 1) % m for i in range(m))
        reflect = tuple(-i % m for i in range(m))
        return PermGroup(m, (rotate, reflect))
    if isinstance(spec, Extraspecial2):
        return _extraspecial_perm_group(p)
    return _psl2_perm_group(p)


# ---------------------------------------------------------------------------
# table comparison up to relabeling


class TableComparison(Record):
    """The outcome of `compare_tables`: on a match, class_map and row_map
    send indices of the first table to indices of the second; otherwise
    reason says what differs."""

    matched: bool
    reason: str | None
    class_map: tuple[int, ...] | None
    row_map: tuple[int, ...] | None

    def __bool__(self) -> bool:
        return self.matched


def compare_tables(a: CharacterTable, b: CharacterTable) -> TableComparison:
    """Decide whether b is a relabeling of a.

    Looks for a class bijection and a character bijection under which the
    tables agree entry by entry; matched classes must have the same size
    and the same element order.  On success class_map and row_map send
    indices of a to indices of b.

    Values are compared semantically: both tables are rewritten into the
    smallest common cyclotomic field first, so differing conductors for
    equal values never cause a spurious mismatch.

    The search runs on integer ids from one dict shared by both tables:
    values get ids in the order of their joint-conductor keys, and a row's
    history, its values on the columns assigned so far (-1 before any),
    grows by giving each pair (history id, value id) the next free id.
    Equal ids mean equal values or equal histories.
    """

    def fail(reason: str) -> TableComparison:
        return TableComparison(False, reason, None, None)

    if a.group_order != b.group_order:
        return fail(f"group orders differ: {a.group_order} vs {b.group_order}")
    if a.num_classes != b.num_classes:
        return fail(f"class counts differ: {a.num_classes} vs {b.num_classes}")
    if len(a.rows) != len(b.rows):
        return fail(f"character counts differ: {len(a.rows)} vs {len(b.rows)}")

    profile_a = sorted((c.size, c.element_order) for c in a.classes)
    profile_b = sorted((c.size, c.element_order) for c in b.classes)
    if profile_a != profile_b:
        return fail(
            f"class (size, element order) multisets differ: {profile_a} vs {profile_b}"
        )

    degrees_a, degrees_b = a.degrees, b.degrees
    if sorted(degrees_a) != sorted(degrees_b):
        return fail(
            f"degree multisets differ: {sorted(degrees_a)} vs {sorted(degrees_b)}"
        )

    joint = lcm(*(v.conductor for v in a.palette + b.palette))
    keys_a, keys_b = ([v.embed(joint).key() for v in t.palette] for t in (a, b))
    ids = {key: n for n, key in enumerate(sorted({*keys_a, *keys_b}))}
    r = a.num_classes

    def columns(table, keys, degrees):
        # columns as value ids; invariant: (size, order), (degree, value) multiset
        value_ids = [ids[key] for key in keys]
        cols = [tuple(value_ids[row[j]] for row in table.rows) for j in range(r)]
        return cols, [
            ((c.size, c.element_order), tuple(sorted(Counter(zip(degrees, col)).items())))
            for c, col in zip(table.classes, cols)
        ]

    cols_a, invariant_a = columns(a, keys_a, degrees_a)
    cols_b, invariant_b = columns(b, keys_b, degrees_b)
    if Counter(invariant_a) != Counter(invariant_b):
        return fail("no class correspondence: per-class value profiles differ")

    buckets: dict[tuple, list[int]] = {}
    for j, inv in enumerate(invariant_b):
        buckets.setdefault(inv, []).append(j)
    # small buckets first: forced assignments come free, ambiguity is deferred
    column_order = sorted(
        range(r), key=lambda j: (len(buckets[invariant_a[j]]), invariant_a[j], j)
    )

    used = [False] * r
    assignment = [0] * r

    def extensions(t, hist_a, hist_b):
        # each candidate for column_order[t], assigned, with the histories
        # after it; equal multisets of histories are necessary for any
        # completion.  Resumed only when the deeper search failed.
        i = column_order[t]
        next_a = [ids.setdefault(pair, len(ids)) for pair in zip(hist_a, cols_a[i])]
        count_a = Counter(next_a)
        for j in buckets[invariant_a[i]]:
            if used[j]:
                continue
            next_b = [ids.setdefault(pair, len(ids)) for pair in zip(hist_b, cols_b[j])]
            if Counter(next_b) != count_a:
                continue
            used[j] = True
            assignment[i] = j
            yield next_a, next_b
            used[j] = False

    # depth first, one generator per assigned column: no recursion limit
    start = [-1] * len(a.rows)
    found, stack = (start, start), []
    while len(stack) < r:
        if found is not None:
            stack.append(extensions(len(stack), *found))
        found = next(stack[-1], None)
        if found is None:
            stack.pop()
            if not stack:
                return fail("no class correspondence aligns the character values")

    # equal rows are possible in a malformed table: match them in order
    rows_b: dict[int, list[int]] = {}
    for y, history in enumerate(found[1]):
        rows_b.setdefault(history, []).append(y)
    row_map = tuple(rows_b[history].pop(0) for history in found[0])
    return TableComparison(True, None, tuple(assignment), row_map)
