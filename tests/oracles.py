"""Independent set-comprehension implementations of every operator.

Everything here works on plain frozensets (a face is a frozenset of vertex
ids, a hypergraph is a frozenset of faces) with no bitmask tricks, so the
package's table/mask machinery can be checked against definitions that read
like the definitions.  Two oracles use numpy: o_push_pairwise sums over
every pair of masks, the O(4^m) definition of a binary pushforward, and
o_hypergraph_pmf multiplies out each mask's product-law mass face by face.

The last three sections keep the former loops of the mask and sampling
layer (per pair, per candidate and per face, one uniform at a time, and
the double-per-pair graph sampler), of the exact layer (the staged
subcomplex enumeration, the vertex span of one mask and the pair sweep of
the distribution laws) and of the Theorem 1 and 2 suites (one law at a
time).  The package computes the same outputs without them, and the
differential tests require exact equality, consumed uniforms included.
"""

from itertools import chain, combinations, compress, islice
from math import comb

import numpy as np

Face = frozenset
Faces = frozenset


def subfaces(face):
    """All nonempty subsets of a face."""
    items = sorted(face)
    return {
        Face(c)
        for k in range(1, len(items) + 1)
        for c in combinations(items, k)
    }


def facets(face):
    """Codimension-1 subsets; empty for vertices."""
    return {face - {v} for v in face} - {Face()}


def o_closure(ambient, h):
    return Faces(tau for sigma in h for tau in subfaces(sigma))


def o_interior(ambient, h):
    # delta: faces all of whose nonempty subsets are present
    return Faces(sigma for sigma in h if subfaces(sigma) <= h)


def o_complement(ambient, h):
    return ambient - h


def o_ext(ambient, h):
    g = lambda x: o_complement(ambient, x)
    return o_closure(ambient, g(o_interior(ambient, g(h))))


def o_int(ambient, h):
    g = lambda x: o_complement(ambient, x)
    return o_interior(ambient, g(o_closure(ambient, g(h))))


def o_nbd(ambient, h):
    touched = Faces(
        sigma for sigma in ambient if any(sigma & tau for tau in h)
    )
    return o_closure(ambient, touched)


def o_nbd_inv(ambient, h):
    # largest h' whose neighborhood stays inside h; nbd distributes over
    # union, so test single faces
    return Faces(
        tau for tau in ambient if o_nbd(ambient, Faces([tau])) <= h
    )


def o_closed_star(ambient, v):
    return o_closure(ambient, Faces(s for s in ambient if v in s))


def o_external(ambient, y):
    # facets suffice when y is a complex; vertices are external when absent
    return Faces(
        sigma
        for sigma in ambient - y
        if all(f in y for f in facets(sigma))
    )


def o_cliques(ambient, y, d):
    return Faces(
        sigma
        for sigma in ambient
        if len(sigma) == d + 1 and all(t in y for t in subfaces(sigma) - {sigma})
    )


def o_maximal(ambient):
    return Faces(
        s for s in ambient if not any(s < t for t in ambient)
    )


def o_distance(ambient, a, b):
    """Simplex-counting BFS distance; d(a, a) = 1."""
    if a == b:
        return 1
    seen = {a}
    frontier = [a]
    steps = 1
    while frontier:
        steps += 1
        nxt = []
        for cur in frontier:
            for s in ambient:
                if s not in seen and s & cur:
                    if s == b:
                        return steps
                    seen.add(s)
                    nxt.append(s)
        frontier = nxt
    return None


def o_staged_pmf(ambient, per_dim, k):
    """Probability of the complex k under the stagewise clique-filling law.

    Stage d looks at the d-faces of the ambient whose proper subsets all
    made it into the complex so far, and keeps each independently with the
    stage probability.
    """
    if o_closure(ambient, k) != k and k != Faces():
        return 0.0
    prob = 1.0
    built = Faces()
    dims = sorted({len(s) - 1 for s in ambient})
    for d in dims:
        eligible = o_cliques(ambient, built, d)
        layer = Faces(s for s in k if len(s) == d + 1)
        if not layer <= eligible:
            return 0.0
        p = per_dim[d]
        for sigma in eligible:
            prob *= p if sigma in layer else 1.0 - p
        built = built | layer
    return prob


def o_derived_closure(n, p, k):
    """Marginal that a fixed k-simplex appears in the closure of the
    Bernoulli hypergraph on n vertices: complement of every superset
    failing."""
    miss = 1.0
    for i in range(0, n - k):
        miss *= (1.0 - p[k + i]) ** comb(n - k - 1, i)
    return 1.0 - miss


def o_derived_interior(n, p, k):
    """Marginal that a fixed k-simplex survives the interior-complex of the
    Bernoulli hypergraph: every nonempty subset present."""
    keep = 1.0
    for i in range(0, k + 1):
        keep *= p[i] ** comb(k + 1, i + 1)
    return keep


def mask_to_faces(amb, mask):
    """Bridge: package mask -> oracle face set."""
    return Faces(
        Face(amb.face_vertices(i))
        for i in range(amb.num_faces)
        if (mask >> i) & 1
    )


def faces_to_mask(amb, faces):
    """Bridge: oracle face set -> package mask."""
    mask = 0
    for f in faces:
        mask |= 1 << amb.face_index(tuple(sorted(f)))
    return mask


def layer_faces(layers, r):
    """Bridge: a truncated generator's vertex arrays -> its faces as tuples
    of Python ints, in row order.  There must be one int64 array per
    dimension d = 0..r, with d + 1 columns."""
    assert len(layers) == r + 1, (len(layers), r)
    faces = []
    for d, verts in enumerate(layers):
        assert verts.dtype == np.int64 and verts.ndim == 2 and verts.shape[1] == d + 1, (d, verts.dtype, verts.shape)
        faces.extend(map(tuple, verts.tolist()))
    return tuple(faces)


def ambient_faces(amb):
    return Faces(
        Face(amb.face_vertices(i)) for i in range(amb.num_faces)
    )


def o_push_pairwise(a, b, op):
    """Vector of the law of op(A, B) for independent A ~ a, B ~ b.

    op maps broadcast arrays of row and column masks to result masks; every
    pair is visited, in row chunks that keep the pair matrix bounded.
    """
    size = a.size
    cols = np.arange(size, dtype=np.uint32)
    vec = np.zeros(size, dtype=np.float64)
    chunk = max(1, (1 << 22) // size)
    for start in range(0, size, chunk):
        rows = np.arange(start, min(start + chunk, size), dtype=np.uint32)
        idx = op(rows[:, None], cols[None, :])
        vec += np.bincount(
            idx.ravel().astype(np.int64),
            weights=np.outer(a[start : start + chunk], b).ravel(),
            minlength=size,
        )
    return vec


def o_hypergraph_pmf(probs):
    """Vector of the independent-faces law over all 2^m masks.

    Entry X folds left from 1.0 over the faces in index order, multiplying
    by q for a face of X and by 1 - q for a face not in X.
    """
    masks = np.arange(1 << len(probs))
    vec = np.ones(masks.size)
    for i, q in enumerate(probs):
        vec *= np.where((masks >> i) & 1 == 1, q, 1.0 - q)
    return vec


# ----- loop references for the mask and sampling layer -------------------------


def o_sample_graph_words(n, p, rng):
    """Erdos-Renyi adjacency words, one uniform per pair in row-major order."""
    nwords = (n + 63) >> 6
    words = np.zeros((n, nwords), dtype=np.uint64)
    us = rng.random(n * (n - 1) // 2)
    idx = 0
    for i in range(n):
        for j in range(i + 1, n):
            if us[idx] < p:
                words[i, j >> 6] |= np.uint64(1) << np.uint64(j & 63)
                words[j, i >> 6] |= np.uint64(1) << np.uint64(i & 63)
            idx += 1
    return words


def o_sample_graph_block(n, p, rng, graphs):
    """The former whole-block sampler: one rng.random double per pair,
    scattered into a (graphs, n, 64 * nwords) bool array and packed."""
    nwords = (n + 63) >> 6
    pairs = n * (n - 1) // 2
    hit = np.flatnonzero(rng.random(graphs * pairs) < p)
    g, pair = np.divmod(hit, max(pairs, 1))
    rows, cols = np.triu_indices(n, 1)
    rows, cols = rows[pair], cols[pair]
    adj = np.zeros((graphs, n, 64 * nwords), dtype=bool)
    adj[g, rows, cols] = True
    adj[g, cols, rows] = True
    packed = np.packbits(adj, axis=2, bitorder="little")
    return packed.view("<u8").astype(np.uint64, copy=False)


def o_clique_stats(words, count_size, exist_size):
    """(count_size-clique count, any exist_size-clique) of one graph, by a
    depth-first enumeration over Python-int bitset rows."""
    n, nwords = words.shape
    rows = [int.from_bytes(words[i].tobytes(), "little") for i in range(n)]
    max_depth = max(count_size, exist_size)
    count = 0
    exists = False
    stack = [(1 << n) - 1]
    while stack:
        candset = stack[-1]
        if candset == 0:
            stack.pop()
            continue
        low = candset & -candset
        v = low.bit_length() - 1
        stack[-1] = candset ^ low
        k = len(stack)
        if k == count_size:
            count += 1
        if k == exist_size:
            exists = True
        if k < max_depth:
            stack.append(stack[-1] & rows[v])
    return count, exists


def o_dimension_stats(n_values, schedule, r, samples, seed):
    """dimension_stats rows from one graph draw and one census at a time."""
    from hyperops.models import rng_from

    rows = []
    for offset, n in enumerate(n_values):
        rng = rng_from(seed, stream=offset)
        p1 = schedule(n)
        le = eq = total = 0
        for _ in range(samples):
            count, exists = o_clique_stats(o_sample_graph_words(n, p1, rng), r + 1, r + 2)
            le += not exists
            eq += not exists and count > 0
            total += count
        rows.append({"n": n, "p1": p1, "samples": samples, "prob_dim_le_r": le / samples,
                     "prob_dim_eq_r": eq / samples, "mean_r_faces": total / samples})
    return rows


def o_relation_masks(amb):
    """(sub, sup, meet) masks by testing every pair of faces."""
    vms = amb.face_vmasks
    m = len(vms)
    sub, sup, meet = ([0] * m for _ in range(3))
    for i, vi in enumerate(vms):
        for j, vj in enumerate(vms):
            if vj & ~vi == 0:
                sub[i] |= 1 << j
            if vi & ~vj == 0:
                sup[i] |= 1 << j
            if vi & vj:
                meet[i] |= 1 << j
    return tuple(sub), tuple(sup), tuple(meet)


def o_boundary(amb, i):
    """The facets of face i as a face mask, one vertex removed at a time."""
    vi = amb.face_vmasks[i]
    if not vi & (vi - 1):
        return 0
    return sum(1 << amb.index[vi & ~(1 << b)] for b in range(vi.bit_length()) if vi >> b & 1)


def o_diameter(amb):
    """Largest face eccentricity of the meets-graph, by a BFS from every face."""
    from hyperops.metric import eccentricity

    best = 1
    for i in range(amb.num_faces):
        e = eccentricity(amb, i)
        if e < 0:
            return -1
        best = max(best, e)
    return best


def o_extension_power_by_paths(amb, h, k):
    """Ext^k via reachability: faces joined to h by a broad path of length <= k+1.

    A broad path consists of maximal faces only.  S_1 holds the maximal faces
    containing an edge of h; each further step adds maximal faces meeting the
    previous layer; the result is the closure of S_k.  Agrees with iterating
    the operator, and serves as an independent route in tests.
    """
    from hyperops.complexes import iter_bits
    from hyperops.operators import closure_mask

    if k <= 0:
        return h
    layer = 0
    for i in iter_bits(amb.maximal_mask):
        if amb.sub_masks[i] & h:
            layer |= 1 << i
    for _ in range(k - 1):
        grown = layer
        for i in iter_bits(amb.maximal_mask):
            if amb.meet_masks[i] & layer:
                grown |= 1 << i
        layer = grown
    return closure_mask(amb, layer)


def o_interior_power_by_paths(amb, h, k):
    """Int^k via distance: drop every face within distance k+1 of the complement."""
    from hyperops.operators import complement_mask

    if k <= 0:
        return h
    ball = complement_mask(amb, h)
    for _ in range(k):
        grown = ball
        for i in range(amb.num_faces):
            if amb.meet_masks[i] & ball:
                grown |= 1 << i
        ball = grown
    return complement_mask(amb, ball)


def o_bernoulli_faces(n, base, r, rng):
    """Stream every candidate face in lexicographic order, one uniform each,
    drawn in blocks of 2^14 per dimension."""
    kept = []
    for d in range(r + 1):
        q = base[d]
        faces = combinations(range(1, n + 1), d + 1)
        remaining = comb(n, d + 1)
        while remaining:
            block = min(remaining, 1 << 14)
            us = rng.random(block)
            chunk = islice(faces, block)
            kept.extend(compress(chunk, us < q))
            remaining -= block
    return kept


def o_staged_complex_faces(n, closure_p, r, rng):
    """Stage-by-dimension draw; a candidate is tested facet by facet."""
    candidates = [(v,) for v in range(1, n + 1)]
    us = rng.random(n)
    layer = list(compress(candidates, us < closure_p[0]))
    faces = list(layer)
    for d in range(1, r + 1):
        prev = set(layer)
        cands = []
        for face in layer:
            for v in range(face[-1] + 1, n + 1):
                ext = face + (v,)
                if all(ext[:i] + ext[i + 1 :] in prev for i in range(d)):
                    cands.append(ext)
        us = rng.random(len(cands))
        layer = list(compress(cands, us < closure_p[d]))
        faces.extend(layer)
    return faces


def o_algorithm2_truncated(n, p, r, rng):
    """Simplicial part up to dimension r: rescan the drawn list once per
    dimension and keep a face iff every facet tuple was kept."""
    from hyperops.sparse import _base_tuple

    drawn = o_bernoulli_faces(n, _base_tuple(n, p), r, rng)
    kept = []
    prev = set()
    for d in range(r + 1):
        layer = [f for f in drawn if len(f) == d + 1]
        if d > 0:
            layer = [f for f in layer if all(f[:i] + f[i + 1 :] in prev for i in range(d + 1))]
        kept.extend(layer)
        prev = set(layer)
    return tuple(kept)


def o_sample_hypergraph(amb, probs, rng):
    """One hypergraph draw: one uniform per face, tested face by face."""
    us = rng.random(amb.num_faces)
    mask = 0
    for i in range(amb.num_faces):
        if us[i] < probs[i]:
            mask |= 1 << i
    return mask


def o_sample_complex(amb, probs, rng):
    """One staged draw: one scalar uniform per eligible candidate, in
    canonical order, dimension by dimension."""
    from hyperops.complexes import iter_bits

    mask = 0
    for d in range(amb.dim + 1):
        for i in iter_bits(amb.faces_by_dim(d)):
            if o_boundary(amb, i) & ~mask:
                continue
            if rng.random() < probs[i]:
                mask |= 1 << i
    return mask


def o_complex_union_resample(amb, k1, k2, q1, q2, rng):
    """The union resampler face by face: one scalar uniform per candidate
    external to at most one input, in canonical order, dimension by
    dimension; candidates external to both draw nothing."""
    from hyperops.complexes import iter_bits
    from hyperops.operators import external_faces_mask

    mask = k1 | k2
    ext1 = external_faces_mask(amb, k1)
    ext2 = external_faces_mask(amb, k2)
    for d in range(1, amb.dim + 1):
        for i in iter_bits(amb.faces_by_dim(d)):
            if mask >> i & 1:
                continue
            if o_boundary(amb, i) & ~mask:
                continue
            in1 = ext1 >> i & 1
            in2 = ext2 >> i & 1
            if in1 and in2:
                continue
            if in1:
                accept = rng.random() < q2[i]
            elif in2:
                accept = rng.random() < q1[i]
            else:
                accept = rng.random() < 1.0 - (1.0 - q1[i]) * (1.0 - q2[i])
            if accept:
                mask |= 1 << i
    return mask


# ----- loop references for the exact layer --------------------------------------


def o_enumerate_subcomplexes(amb):
    """Every downward-closed mask in increasing order, built by dimension
    stages: each partial complex grows by every subset of the next
    dimension's faces whose boundary it holds."""
    from hyperops.complexes import iter_bits

    partial = [0]
    for d in range(amb.dim + 1):
        layer = list(iter_bits(amb.faces_by_dim(d)))
        grown = []
        for base in partial:
            ok = [i for i in layer if o_boundary(amb, i) & ~base == 0]
            for pick in range(1 << len(ok)):
                add = 0
                for b, i in enumerate(ok):
                    if pick >> b & 1:
                        add |= 1 << i
                grown.append(base | add)
        partial = grown
    return sorted(set(partial))


def o_vertex_faces_mask(amb, mask):
    """Face-index mask of the 0-faces spanned by the faces in mask, whether
    or not they belong to mask themselves."""
    from hyperops.complexes import iter_bits

    vm = 0
    for i in iter_bits(mask):
        vm |= amb.face_vmasks[i]
    out = 0
    for b in iter_bits(vm):
        out |= 1 << amb.index[1 << b]
    return out


def o_pair_laws(ct, dt, gt):
    """(violations per law, pairs) of gamma(a | b) = gamma a & gamma b,
    Delta(a | b) = Delta a | Delta b and delta(a & b) = delta a & delta b,
    sweeping every unordered pair a <= b of masks."""
    n = int(ct.shape[0])
    bad = np.zeros(3, dtype=np.int64)
    idx = np.arange(n, dtype=np.uint32)
    for a in range(n):
        b = idx[a:]
        u = np.uint32(a) | b
        bad[0] += int(np.count_nonzero(gt[u] != (gt[a] & gt[b])))
        bad[1] += int(np.count_nonzero(ct[u] != (ct[a] | ct[b])))
        bad[2] += int(np.count_nonzero(dt[np.uint32(a) & b] != (dt[a] & dt[b])))
    return bad, n * (n + 1) // 2


def o_containment_probabilities(dist, k):
    """containment_probabilities as a loop: the mask ops per support point,
    and both masses summed over every mask one at a time."""
    from hyperops.operators import (closure_mask, complement_mask, extension_mask,
                                    interior_complex_mask, interior_mask)

    amb = dist.ambient
    violations = checked = 0
    for h in dist.support():
        gh = complement_mask(amb, h)
        int_k = h
        for _ in range(k):
            int_k = interior_mask(amb, int_k)
        g_int_k = complement_mask(amb, int_k)
        ext_low = gh
        for _ in range(k - 1):
            ext_low = extension_mask(amb, ext_low)
        ext_high = extension_mask(amb, extension_mask(amb, ext_low))
        ext_int = extension_mask(amb, interior_mask(amb, h))
        ok = (ext_low & ~g_int_k == 0
              and g_int_k & ~ext_high == 0
              and ext_int & ~interior_complex_mask(amb, h) == 0)
        checked += 1
        violations += not ok
    dim0 = amb.skeleton_mask(0)
    recovered = bound = 0.0
    for m in range(dist.vec.size):
        if closure_mask(amb, m) & ~interior_mask(amb, extension_mask(amb, m)) == 0:
            recovered += dist.vec[m]
        if closure_mask(amb, m) & dim0 & ~m == 0:
            bound += dist.vec[m]
    return {
        "k": k,
        "support_size": checked,
        "containment_violations": violations,
        "containments_hold": violations == 0,
        "prob_closure_recovered": float(recovered),
        "lower_bound": float(bound),
        "inequality_holds": recovered >= bound - 1e-12,
    }


# ----- per-law loops of the Theorem 1 and 2 suites --------------------------------


def o_verify_transforms(amb, p, tables):
    """verify_transforms for one assignment, one law at a time: each
    closed-form family built on its own and each TV taken on its own."""
    from hyperops.models import resolve_probabilities
    from hyperops.pushforward import (closed_form_family, hypergraph_product, intersection_transform,
                                      push_intersection, push_table, push_union, total_variation,
                                      union_transform)

    vec = resolve_probabilities(amb, p)
    base = hypergraph_product(amb, vec)
    out = {
        row: total_variation(push_table(base, tables[name]), closed_form_family(name, amb, vec))
        for row, name in (("complement", "gamma"), ("closure", "Delta"), ("interior", "delta"))
    }
    out["intersection"] = total_variation(push_intersection(base, base),
                                          hypergraph_product(amb, intersection_transform(amb, vec, vec)))
    out["union"] = total_variation(push_union(base, base),
                                   hypergraph_product(amb, union_transform(amb, vec, vec)))
    return out


def o_suite_theorem1(amb, rng, tables):
    """suite_theorem1 with one random_exact call, one chain and one TV per
    law, and each recovery mass summed on its own vector."""
    from hyperops.metric import diameter
    from hyperops.operators import fixed_points
    from hyperops.pushforward import (containment_cases, contained, extension_limit, interior_limit,
                                      push_table, random_exact, recovery_cases, total_variation,
                                      vertex_supported)

    tol = 1e-12
    d = diameter(amb)
    size = tables["id"].size
    et, it, ct, dt = tables["Ext"], tables["Int"], tables["Delta"], tables["delta"]
    nt, nit = tables["Nbd"], tables["NbdInv"]
    passed = total = 0
    failures = []

    def record(label, good, cases):
        nonlocal passed, total
        passed += good
        total += cases
        if good != cases:
            failures.append(f"{label}: {cases - good} of {cases} cases fail")

    ext_good = int_good = 0
    for _ in range(20):
        f = random_exact(amb, rng)
        ext = intr = f
        for _ in range(d):
            ext, intr = push_table(ext, et), push_table(intr, it)
        ext_good += total_variation(ext, extension_limit(f)) < tol
        int_good += total_variation(intr, interior_limit(f)) < tol
    record("extension chain saturates at the diameter", ext_good, 20)
    record("interior chain empties at the diameter", int_good, 20)

    sandwich = np.logical_and.reduce([containment_cases(tables, k)[0] for k in range(1, d + 2)])
    record("power sandwich between extension chains", int(sandwich.sum()), size)
    vcond = vertex_supported(amb)
    record("neighborhood of co-neighborhood inside the simplicial part", int(contained(nt[nit], dt).sum()), size)
    record("closure inside co-neighborhood of neighborhood", int(contained(ct, nit[nt]).sum()), size)
    record("extension inside neighborhood, equal on vertex-supported masks",
           int((contained(et, nt) & (~vcond | (et == nt))).sum()), size)
    ext_int_inside = containment_cases(tables, 1)[1]
    record("extension of interior inside the simplicial part (all masks)", int(ext_int_inside.sum()), size)
    is_complex = fixed_points(ct)
    record("extension of interior inside the simplicial part (complexes)",
           int(ext_int_inside[is_complex].sum()), int(is_complex.sum()))
    recovered_mask = recovery_cases(tables)
    record("closure recovered on vertex-supported masks", int(recovered_mask[vcond].sum()), int(vcond.sum()))

    good = 0
    for _ in range(20):
        f = random_exact(amb, rng)
        good += float(f.vec[recovered_mask].sum()) >= float(f.vec[vcond].sum()) - tol
    record("recovery probability dominates vertex-support mass", good, 20)
    return passed, total, failures


def o_theorem2_settings(amb):
    """The four (label, assignment) settings of suite_theorem2."""
    from hyperops.models import ProbabilityAssignment

    values = (0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3)
    asymmetric = ProbabilityAssignment.from_entries(
        [(amb.face_vertices(i), values[i % len(values)]) for i in range(amb.num_faces)])
    return [("p=0", ProbabilityAssignment.constant(0.0)), ("p=0.5", ProbabilityAssignment.constant(0.5)),
            ("p=1", ProbabilityAssignment.constant(1.0)), ("asymmetric", asymmetric)]


def o_suite_theorem2(amb, rng, tables):
    """suite_theorem2 as one o_verify_transforms call per setting."""
    passed = total = 0
    failures = []
    for label, pa in o_theorem2_settings(amb):
        tvs = o_verify_transforms(amb, pa, tables)
        for op in ("complement", "closure", "interior", "intersection", "union"):
            total += 1
            if tvs[op] < 1e-12:
                passed += 1
            else:
                failures.append(f"{op} at {label}: TV = {tvs[op]:.6g}")
    return passed, total, failures
