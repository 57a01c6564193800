"""Independent reference implementations the test suite checks against.

Everything here is deliberately written the slow, literal way (python
loops, per-pixel scans, set algebra) and shares no code with the package
paths it verifies.
"""

import math

import numpy as np


def range_project_reference(positions, phi_up, phi_down, height, width):
    """Extended-precision (80-bit) evaluation of the range-image mapping."""
    p = np.asarray(positions, dtype=np.longdouble)
    x, y, z = p[:, 0], p[:, 1], p[:, 2]
    d = np.sqrt(x * x + y * y + z * z)
    phi_up = np.longdouble(phi_up)
    phi_down = np.longdouble(phi_down)
    xi = phi_up + phi_down
    u = np.longdouble(0.5) * (np.longdouble(1) - np.arctan2(y, x) / np.pi) * width
    v = (np.longdouble(1) - (np.arcsin(z / d) + phi_down) / xi) * height
    return np.asarray(u, dtype=np.float64), np.asarray(v, dtype=np.float64)


def range_project_mpmath(point, phi_up_deg, phi_down_deg, height, width, dps=40):
    """Single-point arbitrary-precision evaluation (angles in degrees)."""
    import mpmath as mp

    with mp.workdps(dps):
        x, y, z = (mp.mpf(repr(c)) for c in point)
        d = mp.sqrt(x * x + y * y + z * z)
        phi_up = mp.radians(phi_up_deg)
        phi_down = mp.radians(phi_down_deg)
        xi = phi_up + phi_down
        u = mp.mpf("0.5") * (1 - mp.atan2(y, x) / mp.pi) * width
        v = (1 - (mp.asin(z / d) + phi_down) / xi) * height
        return float(u), float(v)


def zbuffer_sequential(u, v, depth, in_fov, height, width):
    """Point-at-a-time z-buffer update; ties keep the lower point index."""
    winner = np.full((height, width), -1, dtype=np.int64)
    zbuf = np.full((height, width), np.inf)
    for i in range(len(u)):
        if not in_fov[i]:
            continue
        r, c = int(math.floor(v[i])), int(math.floor(u[i]))
        d = depth[i]
        if d < zbuf[r, c] or (d == zbuf[r, c] and i < winner[r, c]):
            zbuf[r, c] = d
            winner[r, c] = i
    return winner, zbuf


def zbuffer_pixel_scan(u, v, depth, in_fov, height, width):
    """Literal per-pixel scan over every point (small instances only)."""
    winner = np.full((height, width), -1, dtype=np.int64)
    zbuf = np.full((height, width), np.inf)
    n = len(u)
    for r in range(height):
        for c in range(width):
            best, best_d = -1, math.inf
            for i in range(n):
                if not in_fov[i]:
                    continue
                if int(math.floor(v[i])) != r or int(math.floor(u[i])) != c:
                    continue
                if depth[i] < best_d:
                    best, best_d = i, depth[i]
            winner[r, c] = best
            if best >= 0:
                zbuf[r, c] = best_d
    return winner, zbuf


# per orthographic kind: (u column, v column, depth column, depth sign)
_ORTHO_COLUMNS = {
    "xy_top": (0, 1, 2, -1.0),
    "xz_front": (0, 2, 1, -1.0),
    "xz_back": (0, 2, 1, 1.0),
    "yz_left": (1, 2, 0, 1.0),
    "yz_right": (1, 2, 0, -1.0),
}


def project_columns_reference(positions, specs):
    """Every plane of `specs` projected from the columns of a C-ordered
    (N, 3) copy of `positions`, with the formulas of a cloud that stores its
    points row by row. Returns (depths, planes, offsets): per plane a dict
    of u, v, depth, in_fov, pixel, winner, zbuffer and the x, y, z, depth,
    occupancy raster; offsets (N, M, 3) to each point's pixel winner. The
    pixel of a point out of FOV is the discard pixel h * w."""
    pos = np.array(positions, dtype=np.float64, order="C")
    n = pos.shape[0]
    x, y, z = pos[:, 0], pos[:, 1], pos[:, 2]
    depths = np.sqrt((x * x + y * y) + z * z)
    planes, offsets = [], np.empty((n, len(specs), 3))
    for m, spec in enumerate(specs):
        h, w = spec.height, spec.width
        if spec.kind == "cylindrical":
            sensor = spec.sensor
            az = np.arctan2(y, x)
            az[az == -np.pi] = np.pi
            u = 0.5 * (1.0 - az / np.pi) * w
            u[u == w] = np.nextafter(float(w), 0.0)
            elev = np.arcsin(z / depths)
            v = (1.0 - (elev + sensor.phi_down) / sensor.xi) * h
            in_fov = (elev >= -sensor.phi_down) & (elev <= sensor.phi_up)
            v[in_fov & (v == h)] = np.nextafter(float(h), 0.0)
            depth = depths
        else:
            ua, va, da, sign = _ORTHO_COLUMNS[spec.kind]
            u0, u1, v0, v1 = spec.extent
            u = (pos[:, ua] - u0) / (u1 - u0) * w
            v = (pos[:, va] - v0) / (v1 - v0) * h
            in_fov = np.ones(n, dtype=bool)
            depth = sign * (pos[:, da] - spec.depth_ref)
        in_fov &= (u >= 0) & (u < w) & (v >= 0) & (v < h)
        pixel = np.full(n, h * w, dtype=np.int64)
        pixel[in_fov] = (np.floor(v[in_fov]).astype(np.int64) * w
                         + np.floor(u[in_fov]).astype(np.int64))
        winner, zbuffer = zbuffer_sequential(u, v, depth, in_fov, h, w)
        occupied = winner >= 0
        raster = np.zeros((h, w, 5))
        for axis in range(3):
            raster[:, :, axis][occupied] = pos[winner[occupied], axis]
        raster[:, :, 3][occupied] = zbuffer[occupied]
        raster[:, :, 4][occupied] = 1.0
        win = np.arange(n)
        win[in_fov] = winner.ravel()[pixel[in_fov]]
        offsets[:, m] = pos - pos[win]
        planes.append({"u": u, "v": v, "depth": depth, "in_fov": in_fov, "pixel": pixel,
                       "winner": winner, "zbuffer": zbuffer, "raster": raster})
    return depths, planes, offsets


def conv2d_reference(x, w, b, stride=2, pad=1):
    """Naive quadruple-loop strided convolution."""
    h, wd, c_in = x.shape
    kh, kw, _, c_out = w.shape
    out_h = (h + 2 * pad - kh) // stride + 1
    out_w = (wd + 2 * pad - kw) // stride + 1
    padded = np.zeros((h + 2 * pad, wd + 2 * pad, c_in))
    padded[pad : pad + h, pad : pad + wd] = x
    out = np.zeros((out_h, out_w, c_out))
    for oy in range(out_h):
        for ox in range(out_w):
            patch = padded[oy * stride : oy * stride + kh, ox * stride : ox * stride + kw]
            for co in range(c_out):
                out[oy, ox, co] = float((patch * w[:, :, :, co]).sum()) + b[co]
    return out


def bilinear_sample_reference(fmap, u, v):
    """Explicit clamped 4-neighbor weighted sum at each query."""
    h, w, c = fmap.shape
    out = np.zeros((len(u), c))
    for i in range(len(u)):
        x = min(max(u[i], 0.0), w - 1.0)
        y = min(max(v[i], 0.0), h - 1.0)
        x0, y0 = int(math.floor(x)), int(math.floor(y))
        x0, y0 = min(x0, w - 1), min(y0, h - 1)
        x1, y1 = min(x0 + 1, w - 1), min(y0 + 1, h - 1)
        fx, fy = x - x0, y - y0
        out[i] = (
            fmap[y0, x0] * (1 - fy) * (1 - fx)
            + fmap[y0, x1] * (1 - fy) * fx
            + fmap[y1, x0] * fy * (1 - fx)
            + fmap[y1, x1] * fy * fx
        )
    return out


def scatter_add_reference(ids, vals, n_rows):
    """Row scatter-add the literal way: unbuffered np.add.at into zeros."""
    out = np.zeros((n_rows,) + vals.shape[1:])
    np.add.at(out, ids, vals)
    return out


def bilinear_sample_backward_reference(grad, shape, u, v):
    """Transpose of `bilinear_sample_reference`, one add per tap and point:
    first every point's top-left tap, then top-right, bottom-left,
    bottom-right, each in point order."""
    h, w, c = shape
    out = np.zeros(shape)
    taps = []
    for i in range(len(u)):
        x = min(max(u[i], 0.0), w - 1.0)
        y = min(max(v[i], 0.0), h - 1.0)
        x0, y0 = min(int(math.floor(x)), w - 1), min(int(math.floor(y)), h - 1)
        x1, y1 = min(x0 + 1, w - 1), min(y0 + 1, h - 1)
        fx, fy = x - x0, y - y0
        g = grad[i]
        taps.append([(y0, x0, g * (1 - fy) * (1 - fx)), (y0, x1, g * (1 - fy) * fx),
                     (y1, x0, g * fy * (1 - fx)), (y1, x1, g * fy * fx)])
    for k in range(4):
        for point_taps in taps:
            y, x, val = point_taps[k]
            out[y, x] += val
    return out


def _resize_taps(n_in, n_out):
    """(low tap, high tap, high weight) per output of the endpoint-aligned
    resize, one scalar formula at a time."""
    taps = []
    for j in range(n_out):
        src = 0.0 if n_out == 1 or n_in == 1 else j * (n_in - 1) / (n_out - 1)
        i0 = min(int(math.floor(src)), n_in - 1)
        taps.append((i0, min(i0 + 1, n_in - 1), src - i0))
    return taps


def bilinear_resize_forward_reference(x, out_h, out_w):
    """Endpoint-aligned separable resize, rows first, then columns; each
    output is its low tap times (1 - w) plus its high tap times w."""

    def resize_axis0(a, n_out):
        out = np.zeros((n_out,) + a.shape[1:])
        for j, (i0, i1, w1) in enumerate(_resize_taps(a.shape[0], n_out)):
            out[j] = a[i0] * (1.0 - w1) + a[i1] * w1
        return out

    rows = resize_axis0(x, out_h)
    return resize_axis0(rows.transpose(1, 0, 2), out_w).transpose(1, 0, 2)


def bilinear_resize_backward_reference(grad, in_h, in_w):
    """Transpose of the endpoint-aligned separable resize, columns first,
    then rows; on each axis every low tap is added before any high tap."""

    def transpose_axis0(g, n_in):
        out = np.zeros((n_in,) + g.shape[1:])
        taps = _resize_taps(n_in, g.shape[0])
        for j, (i0, _, w1) in enumerate(taps):
            out[i0] += g[j] * (1.0 - w1)
        for j, (_, i1, w1) in enumerate(taps):
            out[i1] += g[j] * w1
        return out

    cols = transpose_axis0(grad.transpose(1, 0, 2), in_w).transpose(1, 0, 2)
    return transpose_axis0(cols, in_h)


def attention_reference(point_feats, gathered, valid, offsets, params, heads):
    """Loop-per-point, loop-per-head dense attention reference."""
    n, m, _ = gathered.shape
    h, d = heads, params["w_query"].shape[1] // heads
    c_out = params["w_out"].shape[1]
    out = np.zeros((n, c_out))
    for i in range(n):
        q_full = point_feats[i] @ params["w_query"]
        heads_out = []
        for hh in range(h):
            sl = slice(hh * d, (hh + 1) * d)
            q = q_full[sl]
            scores, values = [], []
            for j in range(m):
                if not valid[i, j]:
                    continue
                k = gathered[i, j] @ params["w_key"][:, sl]
                phi = offsets[i, j] @ params["w_pos"][:, sl]
                scores.append(float(q @ (k + phi)) / math.sqrt(d))
                values.append(gathered[i, j] @ params["w_value"][:, sl])
            mx = max(scores)
            exps = [math.exp(s - mx) for s in scores]
            total = sum(exps)
            ctx = np.zeros(d)
            for e, val in zip(exps, values):
                ctx += (e / total) * val
            heads_out.append(ctx)
        out[i] = np.concatenate(heads_out) @ params["w_out"]
    return out


def cross_attention_reference(point_feats, gathered, valid, offsets, params, heads, grad):
    """Batched-einsum cross-attention: the fused output and the gradients of
    <grad, fused> w.r.t. every input and weight, keyed like the package's
    backward. Softmax runs over the valid planes only; a point with no valid
    plane gets all-zero weights."""
    n, m, _ = gathered.shape
    h, d = heads, params["w_query"].shape[1] // heads
    q = (point_feats @ params["w_query"]).reshape(n, h, d)
    k = np.einsum("nmc,cj->nmj", gathered, params["w_key"]).reshape(n, m, h, d)
    phi = np.einsum("nmi,ij->nmj", offsets, params["w_pos"]).reshape(n, m, h, d)
    v = np.einsum("nmc,cj->nmj", gathered, params["w_value"]).reshape(n, m, h, d)
    keys = k + phi
    scores = np.einsum("nhd,nmhd->nhm", q, keys) / np.sqrt(d)
    scores = np.where(valid[:, None, :], scores, -np.inf)
    weights = np.zeros((n, h, m))
    seen = valid.any(axis=1)
    exps = np.exp(scores[seen] - scores[seen].max(axis=2, keepdims=True))
    weights[seen] = exps / exps.sum(axis=2, keepdims=True)
    context = np.einsum("nhm,nmhd->nhd", weights, v).reshape(n, h * d)
    fused = context @ params["w_out"]

    d_context = (grad @ params["w_out"].T).reshape(n, h, d)
    d_weights = np.einsum("nhd,nmhd->nhm", d_context, v)
    dv = np.einsum("nhm,nhd->nmhd", weights, d_context).reshape(n, m, h * d)
    inner = (d_weights * weights).sum(axis=2, keepdims=True)
    d_scores = weights * (d_weights - inner) / np.sqrt(d)
    dq = np.einsum("nhm,nmhd->nhd", d_scores, keys).reshape(n, h * d)
    dk = np.einsum("nhm,nhd->nmhd", d_scores, q).reshape(n, m, h * d)
    grads = {
        "point_feats": dq @ params["w_query"].T,
        "gathered": np.einsum("nmj,cj->nmc", dk, params["w_key"])
        + np.einsum("nmj,cj->nmc", dv, params["w_value"]),
        "w_query": point_feats.T @ dq,
        "w_key": np.einsum("nmc,nmj->cj", gathered, dk),
        "w_value": np.einsum("nmc,nmj->cj", gathered, dv),
        "w_pos": np.einsum("nmi,nmj->ij", offsets, dk),
        "w_out": context.T @ grad,
    }
    return fused, grads


def cross_entropy_reference(logits, labels, ignore=-1):
    """Literal mean of -log softmax probabilities over labeled rows."""
    terms = []
    for row, lab in zip(logits, labels):
        if lab == ignore:
            continue
        mx = max(row)
        denom = sum(math.exp(v - mx) for v in row)
        terms.append(-(row[lab] - mx - math.log(denom)))
    return sum(terms) / len(terms)


def segmentation_scores_reference(preds, labels, num_classes, ignore=-1):
    """Set-based IoU/recall/accuracy from materialized index sets."""
    keep = [i for i in range(len(labels)) if labels[i] != ignore]
    iou, recall = {}, {}
    present = []
    for k in range(num_classes):
        a = {i for i in keep if preds[i] == k}
        b = {i for i in keep if labels[i] == k}
        if a or b:
            iou[k] = len(a & b) / len(a | b)
        if b:
            present.append(k)
            recall[k] = len(a & b) / len(b)
    correct = sum(1 for i in keep if preds[i] == labels[i])
    return {
        "iou": iou,
        "miou": sum(iou[k] for k in present) / len(present),
        "macc": sum(recall[k] for k in present) / len(present),
        "oa": correct / len(keep),
    }


def average_precision_reference(scores, is_tp, num_gt):
    """Brute-force interpolated AP over the attained recall positions.

    Detections are ranked by descending score, true positives first within
    a tie; p_interp(r) scans every ranked prefix with recall >= r.
    """
    order = sorted(
        range(len(scores)), key=lambda i: (-scores[i], not is_tp[i], i)
    )
    tp = fp = 0
    points = []  # (recall, precision, was_tp)
    for i in order:
        if is_tp[i]:
            tp += 1
        else:
            fp += 1
        points.append((tp / num_gt, tp / (tp + fp), is_tp[i]))
    recalls = [r for r, _, was_tp in points if was_tp]
    if not recalls:
        return 0.0
    total = 0.0
    for r in recalls:
        total += max(p for r2, p, _ in points if r2 >= r)
    return total / len(recalls)


def one_cycle_reference(step, total, lr_max):
    """Independent evaluation of the warmup + cosine schedule."""
    warm = 0.3 * total
    if step <= warm:
        frac = step / warm
        return lr_max / 25 + frac * (lr_max - lr_max / 25)
    s = (step - warm) / (total - warm)
    floor = lr_max / 100
    return floor + (lr_max - floor) * (1 + math.cos(math.pi * s)) / 2
