"""Per-layer tracing of pcsft, installed from outside the package.

``Tracer.install`` replaces the public functions of every pcsft module,
a few named methods, the validating ``__post_init__`` of public
dataclasses, and ``numpy.linalg.eigh``/``eigvalsh`` and
``scipy.linalg.expm`` with wrappers that record spans. A wrapped
function is also rebound wherever another pcsft module imported it by
name (``bridge.sample``, ``fieldlab.sample``, ...). ``uninstall``
restores every original, so untraced passes in the same process run the
unmodified code.

A span is (name, parent span, start, end). Its self time is its
duration minus the time of its child spans, and the wrappers' own
bookkeeping is charged to neither. Spans stay in memory until
``write_spans`` is called at the end of a run. Work counts (rows,
flops, bytes) are computed from argument shapes and labelled as
computed: they say how much work a call was asked to do, not what the
hardware did.
"""

from __future__ import annotations

import functools
import importlib
import json
import pathlib
import time
import types
from collections import defaultdict

LAYERS = ("symplectic", "gaussian", "variables", "dynamics", "bridge", "fieldlab", "experiments", "cli")

CHECKS = "symplectic.checks"
INTEGRATE = "dynamics.integrate"
GRADIENTS = frozenset({"variables.gradients", "dynamics.hamiltonian_gradients"})
SMALL_BATCH = 2  # integrate calls on at most this many rows pay mostly per-step cost

# span names for functions whose default name is not the one reported
RENAMED = {
    "symplectic.is_j_commuting": CHECKS,
    "symplectic.j_commutation_defect": CHECKS,
}

# (layer, class, method, span name)
METHODS = (
    ("symplectic", "BlockOperator", "is_symmetric", CHECKS),
    ("symplectic", "BlockOperator", "symmetry_defect", CHECKS),
    ("symplectic", "ComplexOperator", "is_hermitian", CHECKS),
    ("symplectic", "ComplexOperator", "hermiticity_defect", CHECKS),
    ("variables", "ClassicalVariable", "values", "variables.values"),
    ("variables", "ClassicalVariable", "gradients", "variables.gradients"),
    ("variables", "ClassicalVariable", "hessian_at_zero", "variables.hessian_at_zero"),
    ("dynamics", "QuadraticHamiltonian", "values", "dynamics.hamiltonian_values"),
    ("dynamics", "QuadraticHamiltonian", "gradients", "dynamics.hamiltonian_gradients"),
    ("dynamics", "NonquadraticHamiltonian", "values", "dynamics.hamiltonian_values"),
    ("dynamics", "NonquadraticHamiltonian", "gradients", "dynamics.hamiltonian_gradients"),
)

# report and artifact writers; experiments.io_s is their summed self time
WRITERS = (
    ("experiments", "ReportRecord", "to_json"),
    ("experiments", "ReportRecord", "to_csv"),
    ("bridge", "CorrespondenceReport", "to_csv"),
    ("dynamics", "Trajectory", "to_csv"),
    ("fieldlab", "FieldState", "to_csv"),
)
WRITE_TEXT = "experiments.write_text"

clock = time.perf_counter


class _Frame:
    __slots__ = ("name", "index", "child")

    def __init__(self, name, index):
        self.name = name
        self.index = index
        self.child = 0.0


def _count(args, kwargs, position, keyword):
    return args[position] if len(args) > position else kwargs[keyword]


class Tracer:
    """Span recorder for one traced run; create one per run."""

    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end]
        self.stack = []
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.child_calls = defaultdict(int)  # (parent name, child name) -> calls
        self.counters = defaultdict(float)
        self.io_names = {WRITE_TEXT}
        self.installed = set()  # every span name a wrapper was made for
        self._patched = []  # (owner, attribute, original)
        self._ranks = {}  # id(state) -> (state, covariance rank)
        self._flow_keys = {}  # (id(h), t, method) -> h
        self._linalg_originals = {}

    # -- span recording ---------------------------------------------------

    def _run(self, name, fn, args, kwargs, hook):
        t0 = clock()
        stack = self.stack
        if stack and stack[-1].name == name:
            # a grouped span calling into its own group stays one span
            return fn(*args, **kwargs)
        parent = stack[-1] if stack else None
        frame = _Frame(name, len(self.spans))
        self.spans.append(None)
        if parent is not None:
            self.child_calls[(parent.name, name)] += 1
        if name in GRADIENTS:
            self._note_gradient()
        stack.append(frame)
        error = None
        result = None
        t1 = clock()
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as exc:
            error = exc
            raise
        finally:
            t2 = clock()
            stack.pop()
            self.spans[frame.index] = [name, -1 if parent is None else parent.index, t1, t2]
            self.self_s[name] += (t2 - t1) - frame.child
            self.calls[name] += 1
            if hook is not None:
                try:
                    hook(self, args, kwargs, result, error, t2 - t1)
                except Exception:  # a changed signature must not fail the traced call
                    self.counters["trace.hook_errors"] += 1
            if parent is not None:
                parent.child += clock() - t0

    def _note_gradient(self):
        # one gradient evaluation of an integration step: the outermost
        # gradient span below an integrate span
        names = [f.name for f in self.stack]
        if INTEGRATE in names and not GRADIENTS.intersection(names):
            self.counters["dynamics.integrate.grad_evals"] += 1

    def wrap(self, name, fn, hook=None):
        self.installed.add(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._run(name, fn, args, kwargs, hook)

        return traced

    def _wrap_linalg(self, kind, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # attributed to the innermost traced pcsft layer
            layer = self.stack[-1].name.split(".", 1)[0] if self.stack else "bench"
            return self._run(f"{layer}.{kind}", fn, args, kwargs, None)

        return traced

    # -- installation -----------------------------------------------------

    def _patch(self, owner, attribute, value):
        self._patched.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def install(self):
        """Wrap pcsft's public calls; idempotent only through uninstall."""
        import numpy.linalg
        import scipy.linalg

        package = importlib.import_module("pcsft")
        modules = {layer: importlib.import_module(f"pcsft.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, module in modules.items():
            public = getattr(module, "__all__", None)
            if public is None:
                public = [a for a in vars(module) if not a.startswith("_")]
            for attribute in public:
                obj = getattr(module, attribute, None)
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    name = RENAMED.get(f"{layer}.{attribute}", f"{layer}.{attribute}")
                    wrapped[obj] = self.wrap(name, obj, HOOKS.get(name))
                elif isinstance(obj, type) and "__post_init__" in vars(obj):
                    name = f"{layer}.{attribute}"
                    self._patch(obj, "__post_init__", self.wrap(name, vars(obj)["__post_init__"]))
        for layer, cls_name, method, name in METHODS:
            self._patch_method(modules[layer], cls_name, method, name)
        for layer, cls_name, method in WRITERS:
            name = f"{layer}.{cls_name}.{method}"
            if self._patch_method(modules[layer], cls_name, method, name):
                self.io_names.add(name)
        # rebind every module-level reference to a wrapped function,
        # including names imported into other modules
        for module in (package, *modules.values()):
            for attribute, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrapped:
                    self._patch(module, attribute, wrapped[value])
        for owner, attribute, kind in (
            (numpy.linalg, "eigh", "eig"),
            (numpy.linalg, "eigvalsh", "eig"),
            (scipy.linalg, "expm", "expm"),
        ):
            original = getattr(owner, attribute)
            self._linalg_originals[attribute] = original
            self._patch(owner, attribute, self._wrap_linalg(kind, original))
        self._patch(pathlib.Path, "write_text", self.wrap(WRITE_TEXT, pathlib.Path.write_text))

    def _patch_method(self, module, cls_name, method, name):
        cls = getattr(module, cls_name, None)
        fn = vars(cls).get(method) if cls is not None else None
        if not isinstance(fn, types.FunctionType):
            return False
        self._patch(cls, method, self.wrap(name, fn, HOOKS.get(name)))
        return True

    def uninstall(self):
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)
        self._flow_keys.clear()
        self._ranks.clear()

    # -- helpers for hooks --------------------------------------------------

    def rank(self, state):
        """Covariance rank as the sampler sees it (eigenvalues above
        1e-14 of the largest); cached per state object."""
        hit = self._ranks.get(id(state))
        if hit is None or hit[0] is not state:
            eigvalsh = self._linalg_originals["eigvalsh"]
            w = eigvalsh(state.covariance)
            top = max(float(w[-1]), 0.0)
            hit = (state, int((w > 1e-14 * top).sum()))
            self._ranks[id(state)] = hit
        return hit[1]

    # -- results ------------------------------------------------------------

    def write_spans(self, path):
        names = sorted({s[0] for s in self.spans if s is not None})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s[0]], s[1], round(s[2], 7), round(s[3], 7)] for s in self.spans if s is not None]
        payload = {"names": names, "columns": ["name", "parent", "start_s", "end_s"], "spans": rows}
        pathlib.Path(path).write_text(json.dumps(payload, separators=(",", ":")))


# ---------------------------------------------------------------------------
# Hooks: computed work counts at the layer boundaries. A hook gets the
# call's arguments, its result or error, and the span's duration.
# ---------------------------------------------------------------------------


def _sample_hook(tr, args, kwargs, result, error, seconds):
    rho = _count(args, kwargs, 0, "rho")
    rows = int(_count(args, kwargs, 2, "count"))
    dim = 2 * rho.n
    words = 4 * ((dim + 3) // 4)  # Philox words drawn per row, padded to a block
    c = tr.counters
    c["gaussian.sample.rows"] += rows
    c["gaussian.sample.flops"] += 2.0 * rows * dim * dim
    c["gaussian.sample.bytes"] += 8.0 * rows * (words + 2 * dim)
    c["gaussian.sample.normal_used"] += rows * tr.rank(rho) / dim
    c["gaussian.sample.uniform_used"] += rows * dim / words


def _forms_hook(prefix, with_work):
    def hook(tr, args, kwargs, result, error, seconds):
        variable = args[0]
        shape = getattr(_count(args, kwargs, 1, "pts"), "shape", None)
        if not shape:
            return
        rows = 1
        for extent in shape[:-1]:
            rows *= extent
        c = tr.counters
        c[f"{prefix}.rows"] += rows
        terms = variable.terms
        if not with_work or not terms:
            return
        dim = shape[-1]
        distinct = len({id(t.operator) for t in terms})
        c[f"{prefix}.forms"] += rows * len(terms)
        c[f"{prefix}.distinct_forms"] += rows * distinct
        c[f"{prefix}.flops"] += 2.0 * rows * distinct * dim * dim
        c[f"{prefix}.bytes"] += 8.0 * rows * (distinct * dim + 1)

    return hook


def _field_average_hook(tr, args, kwargs, result, error, seconds):
    rho = _count(args, kwargs, 1, "rho")
    rows = int(_count(args, kwargs, 3, "count"))
    n = rho.n
    c = tr.counters
    c["fieldlab.gaussian_field_average.rows"] += rows
    # complex row times real N x N kernel, then a complex dot product
    c["fieldlab.gaussian_field_average.flops"] += rows * (4.0 * n * n + 8.0 * n)
    c["fieldlab.gaussian_field_average.bytes"] += 16.0 * rows * n + 8.0 * n * n


def _integrate_hook(tr, args, kwargs, result, error, seconds):
    psi0 = _count(args, kwargs, 1, "psi0")
    t_final = float(_count(args, kwargs, 2, "t_final"))
    dt = float(_count(args, kwargs, 3, "dt"))
    shape = getattr(psi0, "shape", ())
    rows = shape[0] if len(shape) == 2 else 1
    steps = max(1, round(abs(t_final) / dt)) if dt > 0 else 0
    c = tr.counters
    c["dynamics.integrate.steps"] += steps
    c["dynamics.integrate.row_steps"] += rows * steps
    if rows <= SMALL_BATCH:
        c["dynamics.integrate.small_batch_s"] += seconds
        c["dynamics.integrate.small_batch_steps"] += steps
    if error is not None and type(error).__name__ == "IntegrationError":
        c["dynamics.integrate.errors"] += 1
    if result is not None:
        c["dynamics.integrate.stored_bytes"] += sum(
            getattr(getattr(result, a, None), "nbytes", 0) for a in ("times", "states", "energies", "norms")
        )


def _rows_hook(name, position, keyword):
    def hook(tr, args, kwargs, result, error, seconds):
        tr.counters[f"{name}.rows"] += int(_count(args, kwargs, position, keyword))

    return hook


def _linear_flow_hook(tr, args, kwargs, result, error, seconds):
    h = _count(args, kwargs, 0, "h")
    t = float(_count(args, kwargs, 1, "t"))
    method = args[2] if len(args) > 2 else kwargs.get("method", "auto")
    key = (id(h), t, method)
    seen = tr._flow_keys.get(key)
    if seen is h:
        tr.counters["dynamics.linear_flow.repeats"] += 1
    else:
        tr._flow_keys[key] = h  # holding h keeps its id from being reused


HOOKS = {
    "gaussian.sample": _sample_hook,
    "variables.values": _forms_hook("variables.values", True),
    "variables.gradients": _forms_hook("variables.gradients", False),
    "fieldlab.gaussian_field_average": _field_average_hook,
    "dynamics.integrate": _integrate_hook,
    "bridge.classical_average": _rows_hook("bridge.classical_average", 3, "count"),
    "dynamics.linear_flow": _linear_flow_hook,
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tr, passes, traced_wall_s, untraced_wall_s, dgemm_gflops, io_bytes):
    """Every per-layer figure the tracer can give, per traced pass.

    Times and counts are totals over the traced passes divided by their
    number; ratios are taken over the totals.
    """
    per = 1.0 / passes
    c = tr.counters
    m = {}
    # installed spans that were never entered read 0; names that were
    # never installed are missing, so a stale metric name is an error
    for name in tr.installed | set(tr.calls):
        m[f"{name}.self_s"] = tr.self_s.get(name, 0.0) * per
        m[f"{name}.calls"] = tr.calls.get(name, 0) * per

    def span(name):
        return tr.self_s.get(name, 0.0), tr.calls.get(name, 0)

    for layer in LAYERS:
        m[f"{layer}.self_s"] = per * sum(v for k, v in tr.self_s.items() if k.split(".", 1)[0] == layer)
        for kind, label in (("eig", "eig"), ("expm", "expm")):
            s, n = span(f"{layer}.{kind}")
            m[f"{layer}.{label}_s"] = s * per
            m[f"{layer}.{label}_calls"] = n * per

    s, _ = span("gaussian.sample")
    rows = c["gaussian.sample.rows"]
    m["gaussian.sample.rows"] = rows * per
    m["gaussian.sample.gflops"] = _ratio(c["gaussian.sample.flops"], s) / 1e9
    m["gaussian.sample.computed_mb"] = c["gaussian.sample.bytes"] * per / 1e6
    m["gaussian.sample.normal_use_ratio"] = _ratio(c["gaussian.sample.normal_used"], rows)
    m["gaussian.sample.uniform_use_ratio"] = _ratio(c["gaussian.sample.uniform_used"], rows)

    name = "fieldlab.gaussian_field_average"
    s, _ = span(name)
    m[f"{name}.rows"] = c[f"{name}.rows"] * per
    m[f"{name}.chunks"] = tr.child_calls[(name, "gaussian.sample")] * per
    m[f"{name}.gflops"] = _ratio(c[f"{name}.flops"], s) / 1e9
    m[f"{name}.computed_mb"] = c[f"{name}.bytes"] * per / 1e6

    s, _ = span("variables.values")
    m["variables.values.rows"] = c["variables.values.rows"] * per
    m["variables.values.gflops"] = _ratio(c["variables.values.flops"], s) / 1e9
    m["variables.values.computed_mb"] = c["variables.values.bytes"] * per / 1e6
    m["variables.values.form_reuse_ratio"] = _ratio(
        c["variables.values.distinct_forms"], c["variables.values.forms"]
    )
    m["variables.gradients.rows"] = c["variables.gradients.rows"] * per

    m["dynamics.integrate.row_steps"] = c["dynamics.integrate.row_steps"] * per
    m["dynamics.integrate.grad_evals_per_step"] = _ratio(
        c["dynamics.integrate.grad_evals"], c["dynamics.integrate.steps"]
    )
    m["dynamics.integrate.stored_mb"] = c["dynamics.integrate.stored_bytes"] * per / 1e6
    m["dynamics.integrate.errors"] = c["dynamics.integrate.errors"] * per
    m["dynamics.integrate.small_batch_s"] = c["dynamics.integrate.small_batch_s"] * per
    m["dynamics.integrate.small_batch_step_us"] = 1e6 * _ratio(
        c["dynamics.integrate.small_batch_s"], c["dynamics.integrate.small_batch_steps"]
    )

    m["bridge.classical_average.rows"] = c["bridge.classical_average.rows"] * per
    m["bridge.classical_average.chunks"] = tr.child_calls[("bridge.classical_average", "gaussian.sample")] * per
    m["bridge.alpha_scan.chunks"] = tr.child_calls[("bridge.alpha_scan", "gaussian.sample")] * per

    _, flows = span("dynamics.linear_flow")
    m["dynamics.linear_flow.repeat_ratio"] = _ratio(c["dynamics.linear_flow.repeats"], flows)

    m["experiments.io_s"] = per * sum(tr.self_s.get(n, 0.0) for n in tr.io_names)
    m["experiments.io_bytes"] = io_bytes * per
    m["machine.dgemm_gflops"] = dgemm_gflops
    m["trace.wall_s"] = traced_wall_s
    m["trace.untraced_wall_s"] = untraced_wall_s
    m["trace.overhead_ratio"] = traced_wall_s / untraced_wall_s - 1.0
    m["trace.spans"] = sum(1 for s in tr.spans if s is not None) * per
    m["trace.hook_errors"] = c["trace.hook_errors"]
    return m


def dgemm_gflops(seconds=0.3, n=512):
    """Reference rate of a square float64 matrix product at the BLAS
    library's default thread count: median over repeated products."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    a @ b
    rates = []
    end = clock() + seconds
    while clock() < end or len(rates) < 5:
        t = clock()
        a @ b
        rates.append(2.0 * n**3 / (clock() - t) / 1e9)
    rates.sort()
    return rates[len(rates) // 2]
