"""An extended-precision reference of the LRU stack, written from the
formulas and calling nothing in the package, to judge the float64 code:
fixed-theta prediction, the adaptive RTRL loop of online fine-tuning and
pretraining. Every value is np.longdouble, or np.clongdouble for states
and traces (80-bit on x86-64, eps 1.1e-19).

The model. Per layer,

    lambda = exp(-exp(nu)) * (cos(exp(theta_phase)) + i sin(exp(theta_phase)))
    h_t    = lambda * h_{t-1} + exp(gamma_log) * ((b_re + i b_im) u_t)
    y_t    = c_re Re(h_t) - c_im Im(h_t) + d u_t

and layer k's y_t is layer k+1's u_t. A flat parameter vector holds the
layers one after another, each layer row-major as nu, theta_phase and
gamma_log (n,), then b_re and b_im (n, m) as one (n, m, 2) block of
(re, im) pairs, then one (p, 2n + m) readout block whose row i holds
output i's (c_re, c_im) pairs (n, 2) followed by row i of d (p, m).

The adaptive loop (`adapt`), one row at a time:

- forward: the step above, from the states of the previous row;
- traces: per layer the complex (n, 2 + m) matrix Z = dh/d(nu,
  theta_phase, b_re rows), Z_t = lambda Z_{t-1} + [dlambda/dnu h_{t-1},
  dlambda/dtheta_phase h_{t-1}, gamma u_t^T]; b_im's trace is i Z[:, 2:]
  and gamma_log's is h;
- gradient of the row's mean Huber loss (delta 1): g = psi(y - target) / p
  at the top, the complex adjoint a = (c_re + i c_im)^T g per layer, each
  traced parameter's gradient Re(a dh/dtheta), C's and D's from the
  output map, and dL/du = Re((b_re + i b_im)^T (gamma a)) + d^T g passed
  to the layer below. Only each layer's own trace carries credit through
  time (the per-layer approximation of online RTRL, exact at depth 1);
- update: the anchor pull lambda_reg (theta - theta_pre) / ||theta -
  theta_pre|| (zero at theta_pre), a gradient with a NaN or infinite
  entry skipped (nothing moves, the step count included), the global-norm
  clip, then Adam with bias corrections, theta -= lr (m / c1) /
  (sqrt(v / c2) + eps);
- a session starts from zero states and traces; a non-finite feature row
  is predicted but leaves states and traces as they were; parameters and
  Adam state carry over sessions.

`replay_row` is the shadow mode: one row of that loop started from values
the float64 run had (parameters, Adam state, states, traces), so its error
is one row's rounding however long or chaotic the run before it was.

Pretraining (`train`): the float64 loop's window draws from the same
generator, the mean Huber loss of each batch of windows and its exact
gradient by reverse mode row by row (BPTT), clip and Adam, and the
best-validation parameters (validation leaves out rows whose loss is not
finite).

Tolerances. Each is relative to max(1, max |oracle|) of its array (to
max |oracle| for Adam's moments m and v) and applies to every stream and
depth of its kind:

- BOUND, fixed-theta predictions and losses: fixed while cmd_finetune
  still replayed each session row by row with the per-step kernels; that
  replay's worst error was 5.4e-15 (a 3601-row session at depth (16,)).
- STEP_BOUNDS, one adaptive row replayed from the float64 run's values
  (3601-row generator streams at depths (16,) and (8, 8));
- STREAM_BOUNDS, free-running adaptive runs: the finetune_reference and
  online_step_depth2 streams, the 37-row cut streams, a 3601-row random
  stream at depth (16,) and TestAdam's 29 Adam steps;
- PRETRAIN_BOUNDS, the BPTT pretraining reference runs.

Each of these three was fixed at ten times the worst float64 error that
tests/test_oracle.py measured for its array before the code they gate
changed, rounded up to one significant digit; that error follows each
entry.
"""

import numpy as np

BLOCKS = ("nu", "theta_phase", "gamma_log",
          "b_re", "b_im", "c_re", "c_im", "d")
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
BOUND = 1e-13
STEP_BOUNDS = {"prediction": 2e-13,       # 1.13e-14
               "gradient": 3e-13,         # 2.37e-14
               "state": 4e-15,            # 3.13e-16
               "trace": 3e-15,            # 2.89e-16
               "theta": 1e-15,            # 9.24e-17
               "m": 7e-14,                # 6.60e-15
               "v": 3e-14,                # 2.38e-15
               "distance": 5e-15}         # 5.00e-16
STREAM_BOUNDS = {"predictions": 6e-14,    # 5.72e-15
                 "loss": 4e-14,           # 3.94e-15
                 "anchor_distance": 2e-14,  # 1.41e-15
                 "gradients": 5e-14,      # 4.18e-15
                 "state": 2e-14,          # 1.65e-15
                 "trace": 4e-14,          # 3.53e-15
                 "theta": 4e-15,          # 3.43e-16
                 "m": 4e-15,              # 3.65e-16
                 "v": 5e-15}              # 4.96e-16
PRETRAIN_BOUNDS = {"theta": 8e-15,        # 8.00e-16
                   "loss_curve": 4e-15,   # 3.27e-16
                   "best_val_loss": 9e-15}  # 8.07e-16


def _complex(re, im):
    """re + i im, set part by part: a multiply by 1j would turn an
    infinite part into NaN (1j * inf has a 0 * inf real part)."""
    z = np.empty(np.shape(re), np.clongdouble)
    z.real = re
    z.imag = im
    return z


def unflatten(theta, dims):
    """Per-layer {block name: view} of a flat vector; dims is one (n, m, p)
    per layer."""
    layers, start = [], 0
    for n, m, p in dims:
        sizes = (n, n, n, 2 * n * m, p * (2 * n + m))
        nu, phase, gamma_log, b, w = np.split(
            theta[start:start + sum(sizes)], np.cumsum(sizes)[:-1])
        b, w = b.reshape(n, m, 2), w.reshape(p, 2 * n + m)
        c = w[:, :2 * n].reshape(p, n, 2)
        layers.append(dict(zip(BLOCKS, (nu, phase, gamma_log, b[..., 0],
                                        b[..., 1], c[..., 0], c[..., 1],
                                        w[:, 2 * n:]))))
        start += sum(sizes)
    return layers


def flatten(layers):
    """The flat vector that unflatten reads as `layers`, one list of
    blocks in BLOCKS order per layer."""
    dims = [(blocks[0].size,) + blocks[-1].shape[::-1] for blocks in layers]
    theta = np.empty(sum(sum(block.size for block in blocks)
                         for blocks in layers), np.longdouble)
    for blocks, views in zip(layers, unflatten(theta, dims)):
        for name, block in zip(BLOCKS, blocks):
            views[name][...] = block
    return theta


def eigenvalues(nu, theta_phase):
    """(lambda, dlambda/dnu = -exp(nu) lambda, dlambda/dtheta_phase =
    i exp(theta_phase) lambda) in extended precision."""
    e_nu = np.exp(np.asarray(nu, np.longdouble))
    phase = np.exp(np.asarray(theta_phase, np.longdouble))
    radius = np.exp(-e_nu)
    lam = _complex(radius * np.cos(phase), radius * np.sin(phase))
    return lam, -e_nu * lam, _complex(-phase * lam.imag, phase * lam.real)


class _Layer:
    def __init__(self, blocks):
        for name in BLOCKS:
            setattr(self, name, np.asarray(blocks[name], np.longdouble))
        self.lam, self.dlam_dnu, self.dlam_dphase = eigenvalues(
            self.nu, self.theta_phase)
        self.gamma = np.exp(self.gamma_log)
        self.b = _complex(self.b_re, self.b_im)
        self.c = _complex(self.c_re, self.c_im)

    def step(self, h, u):
        """(h_t, y_t) from h_{t-1} (..., n) and the input rows u_t (..., m)."""
        h = self.lam * h + _complex(self.gamma * (u @ self.b_re.T),
                                    self.gamma * (u @ self.b_im.T))
        return h, h.real @ self.c_re.T - h.imag @ self.c_im.T + u @ self.d.T


def _stack(theta, dims):
    return [_Layer(blocks) for blocks in unflatten(theta, dims)]


def predict(layers, features, session_ids, start=0, states=None):
    """Predictions (N - start, p), in longdouble, for rows [start, N) of a
    stream at fixed parameters. `layers` are objects with one attribute per
    name in BLOCKS. When row `start` is inside a session (its id is the
    previous row's), that session continues from `states` (one (n,)
    complex array per layer; zero when None); every session that begins
    at or after `start` begins from zero states. A row with a non-finite
    feature is predicted from the states before it and leaves them as
    they were."""
    stack = [_Layer({name: getattr(layer, name) for name in BLOCKS})
             for layer in layers]
    return _predict(stack, features, session_ids, start, states)


def _predict(stack, features, session_ids, start=0, states=None):
    features = np.asarray(features, np.longdouble)
    ids = np.asarray(session_ids)
    zero = [np.zeros(layer.nu.shape, np.clongdouble) for layer in stack]
    h = [np.asarray(s, np.clongdouble) for s in states or zero]
    out = np.empty((len(ids) - start, stack[-1].d.shape[0]), np.longdouble)
    for t in range(start, len(ids)):
        if t == 0 or ids[t] != ids[t - 1]:
            h = zero
        x, stepped = features[t], []
        for layer, h_prev in zip(stack, h):
            h_t, x = layer.step(h_prev, x)
            stepped.append(h_t)
        if np.isfinite(features[t]).all():
            h = stepped
        out[t - start] = x
    return out


def _psi(r):
    """d Huber (delta 1) / d r: r inside [-1, 1], its sign outside, NaN
    for NaN."""
    return np.where(np.abs(r) <= 1, r, np.sign(r))


def huber_rows(preds, targets):
    """Per-row mean Huber loss (delta 1) of preds against targets."""
    r = np.abs(np.asarray(preds, np.longdouble)
               - np.asarray(targets, np.longdouble))
    return np.where(r <= 1, 0.5 * r * r, r - 0.5).mean(axis=1)


# ------------------------------------------------------------ adaptive loop

def _zero(dims):
    """Zero states and traces, where every session starts."""
    return ([np.zeros(n, np.clongdouble) for n, _, _ in dims],
            [np.zeros((n, 2 + m), np.clongdouble) for n, m, _ in dims])


def _rtrl_row(stack, states, traces, u, y):
    """One row at fixed parameters: (new states, new traces, prediction,
    the flat gradient of the row's mean Huber loss)."""
    x, inputs, new_states, new_traces = np.asarray(u, np.longdouble), [], [], []
    for layer, h, z in zip(stack, states, traces):
        inputs.append(x)
        h_t, y_t = layer.step(h, x)
        z_t = layer.lam[:, None] * z
        z_t[:, 0] += layer.dlam_dnu * h
        z_t[:, 1] += layer.dlam_dphase * h
        z_t[:, 2:] += layer.gamma[:, None] * x[None, :]
        new_states.append(h_t)
        new_traces.append(z_t)
        x = y_t
    y = np.asarray(y, np.longdouble)
    g = _psi(x - y) / y.size
    parts = []
    for k in range(len(stack) - 1, -1, -1):
        layer, h, z, u_k = stack[k], new_states[k], new_traces[k], inputs[k]
        a = layer.c.T @ g
        az = a[:, None] * z
        parts.append([az[:, 0].real, az[:, 1].real, (a * h).real,
                      az[:, 2:].real, -az[:, 2:].imag,
                      np.outer(g, h.real), -np.outer(g, h.imag),
                      np.outer(g, u_k)])
        g = (layer.b.T @ (layer.gamma * a)).real + layer.d.T @ g
    grad = flatten(parts[::-1])
    return new_states, new_traces, x, grad


class Adam:
    """Adam's moments and step count, in longdouble."""

    def __init__(self, m, v, t=0):
        self.m = np.array(m, np.longdouble)
        self.v = np.array(v, np.longdouble)
        self.t = t


def _norm(x):
    return np.sqrt(np.sum(x * x))


def descend(theta, grad, adam, lr, clip=None, theta_pre=None, lambda_reg=0.0):
    """One update of theta and adam in place: anchor pull, skip, clip,
    Adam. Returns False when the gradient was skipped."""
    if theta_pre is not None and lambda_reg != 0:
        diff = theta - theta_pre
        distance = _norm(diff)
        if distance != 0:
            grad = grad + lambda_reg * diff / distance
    if not np.isfinite(grad).all():
        return False
    if clip is not None:
        norm = _norm(grad)
        if norm > clip:
            grad = grad * (clip / norm)
    adam.t += 1
    adam.m = BETA1 * adam.m + (1 - BETA1) * grad
    adam.v = BETA2 * adam.v + (1 - BETA2) * grad * grad
    c1 = 1 - np.longdouble(BETA1) ** adam.t
    c2 = 1 - np.longdouble(BETA2) ** adam.t
    theta -= lr * (adam.m / c1) / (np.sqrt(adam.v / c2) + EPS)
    return True


def replay_row(theta, dims, adam, lr, clip, theta_pre, lambda_reg,
               states, traces, u, y):
    """The shadow mode: one adaptive row from the given parameters, Adam
    state (m, v, t), states and traces, each converted to extended
    precision. Returns {name: array} of what the row computes: states,
    traces, prediction, gradient, and after the update theta, m, v, the
    step count, the anchor distance and whether the update was applied."""
    theta = np.array(theta, np.longdouble)
    adam = Adam(*adam)
    new_states, new_traces, pred, grad = _rtrl_row(
        _stack(theta, dims), [np.asarray(h, np.clongdouble) for h in states],
        [np.asarray(z, np.clongdouble) for z in traces], u, y)
    applied = descend(theta, grad, adam, lr, clip, theta_pre, lambda_reg)
    out = {"prediction": pred, "gradient": grad, "theta": theta,
           "m": adam.m, "v": adam.v, "t": adam.t, "applied": applied,
           "distance": _norm(theta - theta_pre)}
    for k, (h, z) in enumerate(zip(new_states, new_traces)):
        out[f"state_{k}"], out[f"trace_{k}"] = h, z
    return out


def adapt(theta, dims, features, targets, session_ids, freeze, lr,
          clip=None, theta_pre=None, lambda_reg=0.0):
    """The adaptive loop over rows [0, freeze), free-running from theta
    with a fresh Adam state. Returns
    {name: array}: per row the prediction (before its update), the
    gradient of its loss (before pull and clip) and the anchor distance
    after its update (theta_pre given); then the number of skipped
    updates, the final theta, m, v and step count, and the states and
    traces after row freeze - 1."""
    theta = np.array(theta, np.longdouble)
    if theta_pre is not None:
        theta_pre = np.asarray(theta_pre, np.longdouble)
    adam = Adam(np.zeros(theta.size), np.zeros(theta.size))
    features = np.asarray(features, np.longdouble)
    ids = np.asarray(session_ids)
    preds, grads, dist, skipped = [], [], [], 0
    states = traces = None
    for t in range(freeze):
        if t == 0 or ids[t] != ids[t - 1]:
            states, traces = _zero(dims)
        new_states, new_traces, pred, grad = _rtrl_row(
            _stack(theta, dims), states, traces, features[t], targets[t])
        preds.append(pred)
        grads.append(grad)
        skipped += not descend(theta, grad, adam, lr, clip, theta_pre,
                               lambda_reg)
        if theta_pre is not None:
            dist.append(_norm(theta - theta_pre))
        if np.isfinite(features[t]).all():
            states, traces = new_states, new_traces
    out = {"predictions": np.array(preds), "gradients": np.array(grads),
           "distances": np.array(dist), "skipped": skipped, "theta": theta,
           "m": adam.m, "v": adam.v, "t": adam.t}
    for k, (h, z) in enumerate(zip(states or [], traces or [])):
        out[f"state_{k}"], out[f"trace_{k}"] = h, z
    return out


def finetune(theta, dims, features, targets, session_ids, freeze, lr, clip,
             lambda_reg):
    """Online fine-tuning's arrays: predictions, per-row losses and anchor
    distances of the adaptive loop over rows [0, freeze) from theta with a
    fresh Adam state, then of the adapted parameters at fixed theta from
    the freeze row on (its session continuing from the adapted states),
    and the frozen predictions and losses. Returns {name: array}."""
    theta = np.asarray(theta, np.longdouble)
    frozen = _predict(_stack(theta, dims), features, session_ids)
    out = {"predictions_frozen": frozen,
           "loss_frozen": huber_rows(frozen, targets),
           "skipped_updates": 0}
    preds, dist = frozen.copy(), np.zeros(len(frozen), np.longdouble)
    if freeze:
        run = adapt(theta, dims, features, targets, session_ids, freeze, lr,
                    clip, theta, lambda_reg)
        states = [run[f"state_{k}"] for k in range(len(dims))]
        preds[:freeze] = run["predictions"]
        preds[freeze:] = _predict(_stack(run["theta"], dims), features,
                                  session_ids, freeze, states)
        dist[:freeze] = run["distances"]
        dist[freeze:] = run["distances"][-1]
        out["skipped_updates"] = run["skipped"]
    out.update(predictions=preds, loss=huber_rows(preds, targets),
               anchor_distance=dist)
    return out


# --------------------------------------------------------------- pretraining

def _sessions(ids):
    """(first, stop) row of each run of equal ids."""
    change = np.flatnonzero(ids[1:] != ids[:-1]) + 1
    return np.r_[0, change], np.r_[change, ids.size]


def window_rows(rng, session_ids, window, batch):
    """(batch, window) row indices: windows drawn uniformly over every
    (session, offset) that fits, one rng.integers draw per batch."""
    first, stop = _sessions(np.asarray(session_ids))
    counts = stop - first - window + 1
    cum = np.cumsum(counts)
    draws = rng.integers(0, cum[-1], size=batch)
    which = np.searchsorted(cum, draws, side="right")
    starts = first[which] + draws - (cum - counts)[which]
    return starts[:, None] + np.arange(window)


def bptt_gradient(theta, dims, inputs, targets):
    """(mean Huber loss over a (B, T, p) batch, its exact flat gradient):
    forward over the T rows of every window from zero states, then the
    adjoint s_t = a_t + lambda s_{t+1} of each layer's states row by row
    backwards, top layer first."""
    stack = _stack(theta, dims)
    x = np.asarray(inputs, np.longdouble)
    targets = np.asarray(targets, np.longdouble)
    B, T, _ = x.shape
    inputs_k, states_k = [], []
    for layer in stack:
        h = np.zeros((B, layer.nu.size), np.clongdouble)
        hs, ys = [], []
        for t in range(T):
            h, y = layer.step(h, x[:, t])
            hs.append(h)
            ys.append(y)
        inputs_k.append(x)
        states_k.append(np.stack(hs, axis=1))
        x = np.stack(ys, axis=1)
    r = x - targets
    a_abs = np.abs(r)
    loss = np.where(a_abs <= 1, 0.5 * r * r, a_abs - 0.5).mean()
    down = _psi(r) / r.size
    parts = []
    for k in range(len(stack) - 1, -1, -1):
        layer, u, h = stack[k], inputs_k[k], states_k[k]
        a = down @ layer.c                                  # (B, T, n)
        s = np.empty_like(a)
        s[:, T - 1] = a[:, T - 1]
        for t in range(T - 2, -1, -1):
            s[:, t] = a[:, t] + layer.lam * s[:, t + 1]
        sh = np.sum(s[:, 1:] * h[:, :-1], axis=(0, 1))
        su = np.einsum("btn,btm->nm", s, _complex(u, np.zeros_like(u)))
        parts.append([(layer.dlam_dnu * sh).real,
                      (layer.dlam_dphase * sh).real,
                      layer.gamma * np.sum((layer.b * su).real, axis=1),
                      layer.gamma[:, None] * su.real,
                      -layer.gamma[:, None] * su.imag,
                      np.einsum("btp,btn->pn", down, h.real),
                      -np.einsum("btp,btn->pn", down, h.imag),
                      np.einsum("btp,btm->pm", down, u)])
        down = ((layer.gamma * s) @ layer.b).real + down @ layer.d
    grad = flatten(parts[::-1])
    return loss, grad


def evaluate(theta, dims, features, targets, session_ids):
    """Mean per-row Huber loss of every session predicted from zero states,
    over the rows whose loss is finite (NaN when none is)."""
    rows = huber_rows(_predict(_stack(theta, dims), features, session_ids),
                      targets)
    rows = rows[np.isfinite(rows)]
    return rows.mean() if rows.size else np.longdouble(np.nan)


def train(theta, dims, train_data, val_data, steps, batch, window, lr, clip,
          seed, eval_every):
    """Pretraining from theta. train_data and val_data (or None) are
    (features, targets, session_ids). Each step draws `batch` windows,
    takes the loss and its BPTT gradient, stops with `diverged` on a
    non-finite loss or gradient, clips and Adam-steps; every eval_every steps and at the last it
    validates and keeps the best parameters. Returns (parameters: the
    best-validation ones, else the last; loss curve rows (step, train
    loss, validation loss or NaN); best validation loss or NaN;
    diverged)."""
    theta = np.array(theta, np.longdouble)
    features, targets, ids = (np.asarray(a) for a in train_data)
    rng = np.random.default_rng(seed)
    adam = Adam(np.zeros(theta.size), np.zeros(theta.size))
    best, best_val, curve, diverged = None, np.inf, [], False
    for i in range(1, steps + 1):
        rows = window_rows(rng, ids, window, batch)
        loss, grad = bptt_gradient(theta, dims, features[rows], targets[rows])
        if not np.isfinite(loss) or not descend(theta, grad, adam, lr, clip):
            diverged = True
            break
        val = np.longdouble(np.nan)
        if val_data is not None and (i % eval_every == 0 or i == steps):
            val = evaluate(theta, dims, *val_data)
            if val < best_val:
                best_val, best = val, theta.copy()
        curve.append((i, loss, val))
    if np.isfinite(best_val):
        theta = best
    else:
        best_val = np.longdouble(np.nan)
    return theta, np.array(curve, np.longdouble), best_val, diverged


# ------------------------------------------------------------------ errors

def relative_error(got, ref, floor=1.0):
    """max |got - ref| / max(floor, max |ref|) over ref's finite entries
    (complex entries by modulus). got must have ref's non-finite entries
    (NaN where ref is NaN, the same infinity where ref is infinite); else
    an AssertionError."""
    got, ref = np.asarray(got), np.asarray(ref)
    kind = np.clongdouble if np.iscomplexobj(ref) or np.iscomplexobj(
        got) else np.longdouble
    got, ref = got.astype(kind), ref.astype(kind)
    assert got.shape == ref.shape
    assert np.array_equal(np.isnan(got), np.isnan(ref))
    inf = np.isinf(ref)
    assert np.array_equal(np.isinf(got), inf)
    assert np.array_equal(got[inf], ref[inf])
    finite = np.isfinite(ref)
    scale = max(floor, float(np.abs(ref[finite]).max(initial=0.0)))
    err = float(np.abs(got[finite] - ref[finite]).max(initial=0.0))
    return err / scale if scale else err
