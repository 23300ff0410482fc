"""The dense Dixon oracle, kept as the reference for the fast one.

A verbatim copy of the algorithm `chartab.oracle.dixon_character_table`
used before it learned to skip work: dense r x r x r structure constants,
an eigenspace split that runs one kernel per lambda in F_p, and a
cyclotomic lift over the full group exponent for every class.  Slow but
plainly correct; the differential tests in `test_oracle.py` require the
fast oracle to return the very same tables (palette keys and index rows).

Only the helpers that the fast oracle did not change (enumeration, row
reduction) are imported from `chartab.oracle`.  The reference keeps the
loop over 25 candidate primes that the oracle had before it settled on the
first of them, Dixon's prime.  The root of unity is still taken from the
least primitive root mod p, as it was: the fast oracle takes another
primitive root of unity, which conjugates each lifted row by one Galois
automorphism and so yields the same set of rows, hence the same sorted
table.
"""

from __future__ import annotations

from math import isqrt

from chartab.exactnum import canonicalize, factorize, prime_1_mod
from chartab.oracle import (
    ClassData,
    PermGroup,
    _invert,
    _kernel,
    _mul,
    _rref,
    enumerate_and_classify,
)
from chartab.tables import CharacterTable, ClassInfo, validate_table


def _candidate_primes(exponent: int, group_order: int, count: int):
    """The first ``count`` primes p = 1 mod exponent with p^2 > 4|G|, in
    increasing order; p^2 > 4|G| exactly when p > isqrt(4|G|)."""
    p = isqrt(4 * group_order)
    for _ in range(count):
        p = prime_1_mod(exponent, p)
        yield p


def _primitive_root(p: int) -> int:
    """The least generator of the units mod the prime p (1 for p = 2)."""
    factors = factorize(p - 1)
    return next(w for w in range(1, p) if all(pow(w, (p - 1) // f, p) != 1 for f in factors))


def reference_split_subspace(basis, pivots, mat, p):
    """Eigenspaces of mat on an invariant subspace, by scanning every lambda."""
    r = len(basis[0])
    d = len(basis)
    restriction = []
    for bvec in basis:
        image = [sum(m_row[k] * bvec[k] for k in range(r)) % p for m_row in mat]
        coords = [image[pc] for pc in pivots]
        for j in range(r):
            residual = image[j] - sum(c * basis[t][j] for t, c in enumerate(coords))
            if residual % p:
                return None  # subspace not invariant mod p
        restriction.append(coords)
    transposed = [[restriction[s][t] for s in range(d)] for t in range(d)]
    pieces = []
    found = 0
    for lam in range(p):
        shifted = [
            [(transposed[i][j] - (lam if i == j else 0)) % p for j in range(d)]
            for i in range(d)
        ]
        ker = _kernel(shifted, p)
        if not ker:
            continue
        mapped = [
            [sum(c[s] * basis[s][j] for s in range(d)) % p for j in range(r)]
            for c in ker
        ]
        pieces.append(_rref(mapped, p))
        found += len(ker)
        if found == d:
            break
    if found != d:
        return None
    return pieces


def reference_multiplicities(powers, zeta_inv: int, p: int) -> dict[int, int]:
    """The lift of one character on a cyclic subgroup, by the direct loop
    the oracle ran per character: m_j = (1/o) sum_t powers[t] zeta^(-jt)
    mod p for each j < o, kept where nonzero; zeta_inv is the inverse of a
    primitive o-th root of unity zeta mod p."""
    o = len(powers)
    zeta_inv_pow = [pow(zeta_inv, t, p) for t in range(o)]
    o_inverse = pow(o, p - 2, p)
    multiplicity = {}
    for j in range(o):
        acc = 0
        for t, x in enumerate(powers):
            acc += x * zeta_inv_pow[j * t % o]
        m_j = acc % p * o_inverse % p
        if m_j:
            multiplicity[j] = m_j
    return multiplicity


def reference_eigenvalues(mat, p):
    """The eigenvalues of a square matrix mod p, ascending, by a lambda scan."""
    d = len(mat)
    out = []
    for lam in range(p):
        shifted = [
            [(mat[i][j] - (lam if i == j else 0)) % p for j in range(d)]
            for i in range(d)
        ]
        if _kernel(shifted, p):
            out.append(lam)
    return out


def _common_eigenvectors(mats, p: int):
    r = len(mats[0])
    full = [[1 if j == i else 0 for j in range(r)] for i in range(r)]
    subspaces = [(full, list(range(r)))]
    for mat in mats[1:]:
        if all(len(basis) == 1 for basis, _ in subspaces):
            break
        refined = []
        for basis, pivots in subspaces:
            if len(basis) == 1:
                refined.append((basis, pivots))
                continue
            pieces = reference_split_subspace(basis, pivots, mat, p)
            if pieces is None:
                return None
            refined.extend(pieces)
        subspaces = refined
    if any(len(basis) != 1 for basis, _ in subspaces):
        return None
    return [basis[0] for basis, _ in subspaces]


def _structure_constants(data: ClassData) -> list[list[list[int]]]:
    r = data.num_classes
    reps = data.representatives
    mats = [[[0] * r for _ in range(r)] for _ in range(r)]
    for x, i in data.class_of.items():
        xi = _invert(x)
        row = mats[i]
        for k, z in enumerate(reps):
            row[data.class_of[_mul(xi, z)]][k] += 1
    return mats


def _try_prime(data: ClassData, mats, exponent: int, p: int) -> CharacterTable | None:
    r = data.num_classes
    reduced = [[[c % p for c in mrow] for mrow in m] for m in mats]
    vectors = _common_eigenvectors(reduced, p)
    if vectors is None:
        return None

    inverse_class = [data.class_of[_invert(rep)] for rep in data.representatives]
    size_inverse = [pow(s, p - 2, p) for s in data.sizes]
    order_residue = data.group_order % p

    root = _primitive_root(p)
    zeta_inv = pow(pow(root, (p - 1) // exponent, p), p - 2, p)
    zeta_inv_pow = [pow(zeta_inv, t, p) for t in range(exponent)]
    exp_inverse = pow(exponent % p, p - 2, p)

    identity = tuple(range(len(data.representatives[0])))
    power_sequences = []
    for rep in data.representatives:
        cur = identity
        seq = []
        for _ in range(exponent):
            seq.append(data.class_of[cur])
            cur = _mul(cur, rep)
        power_sequences.append(seq)

    rows = []
    for v in vectors:
        if v[0] % p == 0:
            return None
        scale = pow(v[0], p - 2, p)
        omega = [x * scale % p for x in v]
        norm = (
            sum(omega[k] * omega[inverse_class[k]] * size_inverse[k] for k in range(r))
            % p
        )
        if norm == 0:
            return None
        degree_sq = order_residue * pow(norm, p - 2, p) % p
        degree = next(
            (t for t in range(1, (p + 1) // 2) if t * t % p == degree_sq), None
        )
        if degree is None:
            return None
        residues = [degree * omega[k] % p * size_inverse[k] % p for k in range(r)]

        values = []
        for k in range(r):
            seq = power_sequences[k]
            multiplicity = {}
            total = 0
            for j in range(exponent):
                acc = 0
                for s in range(exponent):
                    acc += residues[seq[s]] * zeta_inv_pow[j * s % exponent]
                m_j = acc % p * exp_inverse % p
                if m_j:
                    multiplicity[j] = m_j
                    total += m_j
            if total != degree:
                return None
            values.append(canonicalize(exponent, multiplicity))
        if not values[0].is_rational or values[0].as_rational() != degree:
            return None
        rows.append((degree, values))

    rows.sort(key=lambda item: (item[0], tuple(v.key() for v in item[1])))
    classes = tuple(
        ClassInfo(f"c{k}", data.sizes[k], data.element_orders[k]) for k in range(r)
    )
    return CharacterTable.from_values(
        group_name=f"perm(deg={len(identity)}, order={data.group_order})",
        group_order=data.group_order,
        classes=classes,
        character_names=tuple(f"x{i}" for i in range(r)),
        characters=[values for _, values in rows],
    )


def reference_character_table(group: PermGroup) -> CharacterTable:
    """`dixon_character_table` as the dense algorithm computes it."""
    data = enumerate_and_classify(group)
    mats = _structure_constants(data)
    exponent = data.exponent
    for p in _candidate_primes(exponent, data.group_order, 25):
        table = _try_prime(data, mats, exponent, p)
        if table is not None:
            report = validate_table(table)
            if not report:
                raise RuntimeError(f"oracle produced an invalid table: {report.failure}")
            return table
    raise RuntimeError("character table computation failed for 25 candidate primes")
