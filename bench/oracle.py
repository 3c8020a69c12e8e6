"""Independent oracle: the defining identities recomputed from structure constants.

Nothing here imports hombench. Scalars are plain ``fractions.Fraction`` (or
ints), vectors are lists, matrices are lists of rows acting on column vectors
(``A[i][j]`` is the e_i coefficient of the image of e_j), and a structure
table is a dense nested list ``c[i][j][k]``: the e_k coefficient of e_i * e_j.

Each ``*_failures`` function returns the set of ``(identity, witness,
residual)`` triples whose residual is nonzero, using the identity names,
witness tuples and sign conventions documented for the workbench's validators,
so the two sets can be compared exactly. The arithmetic is organised
differently from the validators: whole tensors are contracted index by index
instead of multiplying basis vectors through a bilinear map.
"""

from fractions import Fraction


def zeros3(n1, n2, n3):
    return [[[0] * n3 for _ in range(n2)] for _ in range(n1)]


def dense3(items, n):
    """A dense n x n x n table from a sparse {(i, j, k): c} dict."""
    c = zeros3(n, n, n)
    for (i, j, k), v in items.items():
        c[i][j][k] = v
    return c


def sparse3(c):
    n = len(c)
    return {(i, j, k): c[i][j][k] for i in range(n) for j in range(n) for k in range(n)
            if c[i][j][k] != 0}


def matmul(a, b):
    inner = len(b)
    cols = len(b[0]) if b else 0
    return [[sum(row[t] * b[t][j] for t in range(inner) if row[t] != 0) for j in range(cols)]
            for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def inverse(a):
    """Gauss-Jordan inverse over Fraction; None when singular."""
    n = len(a)
    work = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pivot is None:
            return None
        work[col], work[pivot] = work[pivot], work[col]
        scale = work[col][col]
        work[col] = [x / scale for x in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    return [row[n:] for row in work]


def transform_twist_slot(c, a, slot):
    """Contract the table with the matrix on one input slot:
    slot 0 gives sum_p A[p][i] c[p][j][k] (first input replaced by A e_i)."""
    n = len(c)
    out = zeros3(n, n, n)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                total = 0
                for p in range(n):
                    coeff = a[p][i] if slot == 0 else a[p][j]
                    if coeff != 0:
                        total += coeff * (c[p][j][k] if slot == 0 else c[i][p][k])
                out[i][j][k] = total
    return out


def twist_output(c, a):
    """(alpha o c)[i][j][k] = sum_p A[k][p] c[i][j][p]."""
    n = len(c)
    return [[[sum(a[k][p] * c[i][j][p] for p in range(n) if c[i][j][p] != 0) for k in range(n)]
             for j in range(n)] for i in range(n)]


def compose_left(c, d):
    """T[i][j][k][r] = sum_p c[i][j][p] d[p][k][r]: (e_i e_j) acted on from the left of d."""
    n = len(c)
    return [[[[sum(c[i][j][p] * d[p][k][r] for p in range(n) if c[i][j][p] != 0)
               for r in range(n)] for k in range(n)] for j in range(n)] for i in range(n)]


def compose_right(d, c):
    """T[i][j][k][r] = sum_p d[i][p][r] c[j][k][p]: d's first input against e_j e_k."""
    n = len(c)
    return [[[[sum(d[i][p][r] * c[j][k][p] for p in range(n) if c[j][k][p] != 0)
               for r in range(n)] for k in range(n)] for j in range(n)] for i in range(n)]


def _morphism(c, a):
    """R[i][j] = alpha(e_i e_j) - alpha(e_i) alpha(e_j), as output vectors."""
    n = len(c)
    lhs = twist_output(c, a)
    both = transform_twist_slot(transform_twist_slot(c, a, 0), a, 1)
    return [[[lhs[i][j][k] - both[i][j][k] for k in range(n)] for j in range(n)] for i in range(n)]


def _nonzero(vec):
    return any(x != 0 for x in vec)


def _fr(vec):
    return tuple(Fraction(x) for x in vec)


def hom_pre_lie_failures(c, a):
    """twist-invertible, twist-product-morphism, twisted-associator-symmetry."""
    n = len(c)
    out = set()
    if inverse(a) is None:
        out.add(("twist-invertible", (), ()))
    mor = _morphism(c, a)
    for i in range(n):
        for j in range(n):
            if _nonzero(mor[i][j]):
                out.add(("twist-product-morphism", (i, j), _fr(mor[i][j])))
    # (x y) alpha(z): c contracted with the second slot twisted table
    c_tw2 = transform_twist_slot(c, a, 1)       # e_p * alpha(e_k)
    c_tw1 = transform_twist_slot(c, a, 0)       # alpha(e_i) * e_p
    first = compose_left(c, c_tw2)              # (e_i e_j) alpha(e_k)
    second = compose_right(c_tw1, c)            # alpha(e_i) (e_j e_k)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                res = [first[i][j][k][r] - second[i][j][k][r] - first[j][i][k][r] + second[j][i][k][r]
                       for r in range(n)]
                if _nonzero(res):
                    out.add(("twisted-associator-symmetry", (i, j, k), _fr(res)))
    return out


def hom_lie_failures(c, a):
    """skew-symmetry, twist-invertible, twist-bracket-morphism, hom-jacobi."""
    n = len(c)
    out = set()
    for i in range(n):
        for j in range(i, n):
            res = [c[i][j][k] + c[j][i][k] for k in range(n)]
            if _nonzero(res):
                out.add(("skew-symmetry", (i, j), _fr(res)))
    if inverse(a) is None:
        out.add(("twist-invertible", (), ()))
    mor = _morphism(c, a)
    for i in range(n):
        for j in range(n):
            if _nonzero(mor[i][j]):
                out.add(("twist-bracket-morphism", (i, j), _fr(mor[i][j])))
    outer = compose_right(transform_twist_slot(c, a, 0), c)   # [phi e_a, [e_b, e_c]]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                res = [outer[i][j][k][r] + outer[j][k][i][r] + outer[k][i][j][r] for r in range(n)]
                if _nonzero(res):
                    out.add(("hom-jacobi", (i, j, k), _fr(res)))
    return out


def dendriform_failures(left, right, a):
    """twist-invertible, twist-left/right-morphism, left-axiom, right-axiom."""
    n = len(left)
    out = set()
    if inverse(a) is None:
        out.add(("twist-invertible", (), ()))
    for name, table in (("twist-left-morphism", left), ("twist-right-morphism", right)):
        mor = _morphism(table, a)
        for i in range(n):
            for j in range(n):
                if _nonzero(mor[i][j]):
                    out.add((name, (i, j), _fr(mor[i][j])))
    l_tw2 = transform_twist_slot(left, a, 1)
    r_tw2 = transform_twist_slot(right, a, 1)
    l_tw1 = transform_twist_slot(left, a, 0)
    r_tw1 = transform_twist_slot(right, a, 0)
    ll = compose_left(left, l_tw2)      # (x |> y) |> a(z)
    rl = compose_left(right, l_tw2)     # (x <| y) |> a(z)
    lr = compose_left(left, r_tw2)      # (x |> y) <| a(z)
    rr = compose_left(right, r_tw2)     # (x <| y) <| a(z)
    l_of_l = compose_right(l_tw1, left)     # a(x) |> (y |> z)
    r_of_l = compose_right(r_tw1, left)     # a(x) <| (y |> z)
    r_of_r = compose_right(r_tw1, right)    # a(x) <| (y <| z)
    l_of_r = compose_right(l_tw1, right)    # a(x) |> (y <| z)

    def half(i, j, k, r):
        return ll[i][j][k][r] + rl[i][j][k][r] + l_of_l[j][i][k][r]

    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                res = [half(i, j, k, r) - half(j, i, k, r) for r in range(n)]
                if _nonzero(res):
                    out.add(("left-axiom", (i, j, k), _fr(res)))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                res = [lr[i][j][k][r] + r_of_l[j][i][k][r] + r_of_r[j][i][k][r]
                       - rr[j][i][k][r] - l_of_r[i][j][k][r] for r in range(n)]
                if _nonzero(res):
                    out.add(("right-axiom", (i, j, k), _fr(res)))
    return out


def intertwines(a, r):
    """The tensor r (matrix r[p][q], coefficient of e_p (x) e_q) intertwines the
    inverse dual twist with the twist exactly when A r A^T = r."""
    return matmul(matmul(a, r), transpose(a)) == [list(row) for row in r]


def s_bracket(c, a, r):
    """The twisted square bracket of r with itself, as a dense n x n x n tensor.

    With B = A r and C = r A^T it is
    sum B[i][q] B[j][t] c[q][t][k]
    - sum B[i][q] (c[s][q][j] - c[q][s][j]) C[s][k]
    - sum c[p][s][i] C[s][j] C[p][k].
    """
    n = len(c)
    b = matmul(a, r)
    cc = matmul(r, transpose(a))
    out = zeros3(n, n, n)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                t1 = sum(b[i][q] * b[j][t] * c[q][t][k]
                         for q in range(n) if b[i][q] != 0 for t in range(n))
                t2 = sum(b[i][q] * (c[s][q][j] - c[q][s][j]) * cc[s][k]
                         for q in range(n) if b[i][q] != 0 for s in range(n))
                t3 = sum(c[p][s][i] * cc[s][j] * cc[p][k]
                         for p in range(n) for s in range(n) if c[p][s][i] != 0)
                out[i][j][k] = t1 - t2 - t3
    return out


def is_s_matrix(c, a, r):
    """Symmetric, intertwining, and a vanishing twisted bracket."""
    n = len(c)
    if any(r[i][j] != r[j][i] for i in range(n) for j in range(n)):
        return False
    if not intertwines(a, r):
        return False
    return all(x == 0 for plane in s_bracket(c, a, r) for vec in plane for x in vec)


def o_operator_failures(c, a, left, right, beta, t):
    """twist-intertwine and operator-product for an operator t (n x m) from a
    representation space (twist beta, left/right action matrices per basis
    vector of the algebra) into the algebra. Returns None when beta is singular."""
    n = len(c)
    m = len(beta)
    beta_inv = inverse(beta)
    if beta_inv is None:
        return None
    out = set()
    diff_l = matmul(t, beta)
    diff_r = matmul(a, t)
    for j in range(m):
        res = [diff_l[i][j] - diff_r[i][j] for i in range(n)]
        if _nonzero(res):
            out.add(("twist-intertwine", (j,), _fr(res)))
    shifted = matmul(t, beta_inv)       # column u is T beta^-1 e_u
    for u in range(m):
        for v in range(m):
            lhs = [sum(t[p][u] * t[q][v] * c[p][q][k] for p in range(n) if t[p][u] != 0
                       for q in range(n)) for k in range(n)]
            inner = [0] * m
            for x in range(n):
                su = shifted[x][u]
                sv = shifted[x][v]
                for w in range(m):
                    inner[w] += su * left[x][w][v] + sv * right[x][w][u]
            res = [lhs[k] - sum(t[k][w] * inner[w] for w in range(m)) for k in range(n)]
            if _nonzero(res):
                out.add(("operator-product", (u, v), _fr(res)))
    return out


def basis_change(c, a, p):
    """Transport (c, A) along x' = P x: c'(x', y') = P c(P^-1 x', P^-1 y'), A' = P A P^-1."""
    n = len(c)
    q = inverse(p)
    if q is None:
        raise ValueError("basis change matrix is singular")
    # tmp[i][j][k] = c(P^-1 e_i, P^-1 e_j)_k
    first = [[[sum(q[s][i] * c[s][j][k] for s in range(n) if q[s][i] != 0) for k in range(n)]
              for j in range(n)] for i in range(n)]
    both = [[[sum(q[s][j] * first[i][s][k] for s in range(n) if q[s][j] != 0) for k in range(n)]
             for j in range(n)] for i in range(n)]
    out = [[[sum(p[k][s] * both[i][j][s] for s in range(n) if both[i][j][s] != 0)
             for k in range(n)] for j in range(n)] for i in range(n)]
    return out, matmul(matmul(p, a), q)


def yau_twist(c, a):
    """The Yau twist (alpha o c, alpha) of an untwisted table by an endomorphism."""
    return twist_output(c, a), [list(row) for row in a]


def is_automorphism(c, a):
    """alpha(x y) = alpha(x) alpha(y) on the untwisted table."""
    return not any(_nonzero(vec) for plane in _morphism(c, a) for vec in plane)


def coadjoint_rep(c, a):
    """The coadjoint representation of a twisted pre-Lie table, by definition:
    the twisted dual of the regular pair (L, R) on the dual space, whose twist
    is the inverse transpose of alpha. Returns (left, right, twist), with one
    matrix per basis vector of the algebra."""
    n = len(c)
    inv_t = transpose(inverse(a))
    sq = matmul(inv_t, inv_t)

    def star(maps):
        out = []
        for i in range(n):
            total = [[sum(a[j][i] * maps[j][w][v] for j in range(n)) for v in range(n)]
                     for w in range(n)]
            out.append(matmul([[-x for x in row] for row in transpose(total)], sq))
        return out

    left = [[[c[i][v][w] for v in range(n)] for w in range(n)] for i in range(n)]
    right = [[[c[v][i][w] for v in range(n)] for w in range(n)] for i in range(n)]
    star_left, star_right = star(left), star(right)
    dual_left = [[[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(sl, sr)]
                 for sl, sr in zip(star_left, star_right)]
    dual_right = [[[-x for x in row] for row in m] for m in star_right]
    return dual_left, dual_right, inv_t
