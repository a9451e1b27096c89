"""The product routines that built a new combination for every term, kept as
the reference for the accumulators that replaced them.

`comb_add` copied the whole accumulator on each call, and the naive product,
the module Leibniz rule and `vector_combination` added one term at a time
through it, as the algebra's Leibniz rule did through `poly_add`;
`map_from_generator_images` walked every stored row of
the target's action matrix A^i (x) N^t and kept the entries whose column hit
img(g).  The bodies below are those routines as they were, rewritten only to
take the module or algebra as an argument.
"""

from dgmodels.cdga import poly_add, poly_is_zero, poly_scale
from dgmodels.dgmodule import DgModuleMap
from dgmodels.linalg import RatMatrix, as_q, vec


def comb_add(a, b):
    out = {j: dict(p) for j, p in a.items()}
    for j, p in b.items():
        s = poly_add(out.get(j, {}), p)
        if poly_is_zero(s):
            out.pop(j, None)
        else:
            out[j] = s
    return out


def comb_scale(c, a):
    c = as_q(c)
    if not c:
        return {}
    return {j: poly_scale(c, p) for j, p in a.items()}


def naive_pair_mul(free, gi, mi, gj, mj):
    alg = free.algebra
    if gi and gj:
        return {}
    if gi:
        # n a' = (-1)^{|n||a'|} a' n, with |n| the degree of n in the module
        poly = alg.poly_mul({mj: 1}, {mi: 1})
        if (alg.mono_degree(mj) * (alg.mono_degree(mi) + free.gen_degrees[gi])) % 2:
            poly = poly_scale(-1, poly)
    else:
        poly = alg.poly_mul({mi: 1}, {mj: 1})
    return {gi or gj: poly} if poly else {}


def naive_mul(free, a, b, c=1, out=None, pair_mul=naive_pair_mul):
    """out + c a b, the naive product one pair of terms at a time, with the
    signature of `circle._naive_mul`; pair_mul multiplies two terms."""
    prod = {}
    for gi, pi in a.items():
        for mi, ci in pi.items():
            for gj, pj in b.items():
                for mj, cj in pj.items():
                    term = pair_mul(free, gi, mi, gj, mj)
                    if term:
                        prod = comb_add(prod, comb_scale(ci * cj, term))
    return comb_add(out or {}, comb_scale(c, prod))


def d_mono(alg, m):
    out = {}
    prefix_deg = 0
    k = len(alg.names)
    for i in range(k):
        e = m[i]
        if e and alg.differentials[i]:
            left = m[:i] + (e - 1,) + (0,) * (k - i - 1)
            right = (0,) * (i + 1) + m[i + 1 :]
            term = alg.poly_mul({left: 1}, alg.differentials[i])
            term = alg.poly_mul(term, {right: 1})
            sign = -1 if prefix_deg % 2 else 1
            out = poly_add(out, poly_scale(sign * e, term))
        prefix_deg += e * alg.degrees[i]
    return out


def d_poly(alg, p):
    out = {}
    for m, c in p.items():
        out = poly_add(out, poly_scale(c, d_mono(alg, m)))
    return out


def d_combination(free, comb):
    out = {}
    for j, cj in comb.items():
        if poly_is_zero(cj):
            continue
        deg = free.algebra.poly_degree(cj)
        dcj = d_poly(free.algebra, cj)
        if not poly_is_zero(dcj):
            out = comb_add(out, {j: dcj})
        sign = -1 if deg % 2 else 1
        for h, q in free.gen_diffs[j].items():
            prod = free.algebra.poly_mul(cj, q)
            if not poly_is_zero(prod):
                out = comb_add(out, {h: poly_scale(sign, prod)})
    return out


def vector_combination(free, v, k):
    out = {}
    for (gi, m), c in zip(free.basis(k), v):
        if c:
            out = comb_add(out, {gi: {m: as_q(c)}})
    return out


def map_by_action_rows(source, target, degree, images):
    """map_from_generator_images on any target, each column a.g read off the
    stored rows of the target's action matrix; images are dense vectors."""
    img_vectors = {}
    for gname, v in images.items():
        gi = source.gen_index(gname)
        if source.gen_degrees[gi] + degree <= target.cap:
            img_vectors[gi] = {s: x for s, x in enumerate(vec(v)) if x}
    mats = {}
    for k in range(min(source.cap, target.cap - degree) + 1):
        rows = [{} for _ in range(target.dim(k + degree))]
        col0 = 0
        for gi, deg in enumerate(source.gen_degrees):
            if deg > k:
                continue
            i, t, img = k - deg, deg + degree, img_vectors.get(gi)
            dim_a = source.algebra.dim(i)
            if img and dim_a:
                dim_t, sign = target.dim(t), -1 if (i * degree) % 2 else 1
                for out, row in zip(rows, target.action_matrix(i, t)._nz):
                    for col, x in row.items():
                        a, s = divmod(col, dim_t)
                        if s in img:
                            c, y = col0 + a, sign * x * img[s]
                            out[c] = out[c] + y if c in out else y
            col0 += dim_a
        rows = [{c: x for c, x in row.items() if x} for row in rows]
        mats[k] = RatMatrix._make(len(rows), source.dim(k), rows)
    return DgModuleMap(source, target, degree, mats)
