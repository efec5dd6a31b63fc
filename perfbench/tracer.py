"""Traced in-process run of one weakdis study.

    python3 perfbench/tracer.py --spans FILE --run-id ID -- <engine arguments>

Wraps the functions named in ``SPANS`` wherever a weakdis module binds them
(``from x import f`` copies a binding, so each calling module is patched),
runs ``weakdis.cli.main`` once and writes the recorded spans and counters to
FILE when the study has ended.  The study's own result files are the same
bytes as without tracing: the wrappers only pass calls through.

A span is ``[name_id, start_ns, end_ns, parent_index]`` with times from
``time.perf_counter_ns`` relative to the start of the run.  Parents come
from a call stack, so the study must run single-threaded (``--threads 1``).
"""

import argparse
import functools
import json
import sys
import time


class Recorder:
    """Spans and counters of one run, kept in memory until it ends."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.names = []
        self.spans = []
        self.counters = {}
        self._name_ids = {}
        self._stack = []
        self.missing = []
        self.t0 = time.perf_counter_ns()

    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    def wrap(self, name, fn, on_return=None):
        """fn wrapped in a span called name; on_return(rec, args, kwargs,
        result) adds counts after the span has closed."""
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        spans, stack, clock, t0 = self.spans, self._stack, time.perf_counter_ns, self.t0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([nid, clock() - t0, 0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock() - t0
            if on_return is not None:
                on_return(self, args, kwargs, result)
            return result

        return wrapper

    def dump(self, path, exit_code):
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "exit_code": exit_code,
                       "names": self.names, "spans": self.spans,
                       "counters": self.counters,
                       "missing": self.missing}, fh,
                      separators=(",", ":"))


def _size(values):
    """Element count of an array, a sequence, or 1 for a scalar."""
    size = getattr(values, "size", None)
    if size is not None:
        return int(size)
    return len(values) if isinstance(values, (list, tuple)) else 1


def _count_terms(rec, args, kwargs, result):
    rec.count("coefficients.terms", int(result[1]))


def _count_fsum(rec, args, kwargs, result):
    rec.count("accum.fsum_elems", _size(args[0] if args else kwargs["values"]))


def _count_points(rec, args, kwargs, result):
    p = args[1] if len(args) > 1 else kwargs["p"]
    shape = getattr(p, "shape", None)
    rec.count("lattice.transform_points",
              1 if shape is not None and len(shape) == 1 else len(p))


def _count_envelope(rec, args, kwargs, result):
    rec.count("lattice.envelope_points", _size(args[0]))


def _count_window(rec, args, kwargs, result):
    ctx = result.context
    rec.count("bounds.window_points", (2 * int(ctx["window"]) + 1) ** int(ctx["d"]))


def _count_dos_samples(rec, args, kwargs, result):
    rec.count("dos.mc_samples", int(args[3] if len(args) > 3 else kwargs["n_samples"]))


# (span name, attribute, binding modules, on_return)
SPANS = [
    ("cli.load_config", "load_config", ["cli"], None),
    ("cli.build_model", "build_model", ["cli"], None),
    ("coefficients._chain_sum", "_chain_sum", ["coefficients", "dos"],
     _count_terms),
    ("coefficients.truncation_tail_bound", "truncation_tail_bound",
     ["coefficients"], None),
    ("coefficients.bhat_star_norms", "bhat_star_norms",
     ["coefficients", "dos", "bounds"], None),
    ("dos.dos_coefficient_D", "dos_coefficient_D", ["dos"], None),
    ("dos.dos_expansion", "dos_expansion", ["dos"], None),
    ("dos.dos_mc", "dos_mc", ["dos"], _count_dos_samples),
    ("lattice.build_lattice", "build_lattice", ["lattice", "cli"], None),
    ("lattice.profile_fourier_periodized", "profile_fourier_periodized",
     ["lattice", "coefficients", "bounds"], _count_points),
    ("lattice.wavepacket_fourier_periodized", "wavepacket_fourier_periodized",
     ["lattice", "coefficients"], _count_points),
    ("montecarlo.sample_config", "sample_config", ["montecarlo", "dos"], None),
    ("montecarlo.potential_matrix", "potential_matrix", ["montecarlo"], None),
    ("montecarlo.assemble_hamiltonian", "assemble_hamiltonian",
     ["montecarlo", "dos"], None),
    ("montecarlo.estimate_expectation", "estimate_expectation",
     ["montecarlo"], None),
    ("montecarlo.estimate_partial_term", "estimate_partial_term",
     ["montecarlo"], None),
    ("accum.fsum_r", "fsum_r", ["lattice", "montecarlo", "dos", "bounds"],
     _count_fsum),
    ("accum.fsum_c", "fsum_c",
     ["lattice", "coefficients", "montecarlo", "dos", "bounds"], _count_fsum),
    ("bounds.check_resolvent_sum_bound", "check_resolvent_sum_bound",
     ["bounds"], _count_window),
    ("bounds.check_weighted_resolvent_sum", "check_weighted_resolvent_sum",
     ["bounds"], None),
    ("bounds.check_log_integral_bound", "check_log_integral_bound",
     ["bounds"], None),
    ("bounds.main_error_bound_rhs", "main_error_bound_rhs", ["bounds"], None),
]

# factories whose returned closures are the lattice decay envelopes
ENVELOPE_FACTORIES = [
    ("profile_axis_envelope", ["lattice", "coefficients", "dos"]),
    ("wavepacket_axis_envelope", ["lattice", "coefficients"]),
]

MODULES = ("_accum", "bounds", "cli", "coefficients", "dos", "lattice",
           "montecarlo", "partitions")


def install(rec):
    """Patch every binding listed above, one shared wrapper per function
    object.  A binding the code no longer has is skipped and listed in the
    returned ``missing`` list; the study still runs, and run.py counts the
    invocation as failed, so a layer that lost its spans cannot read as 0 s.
    Returns (cli module, missing)."""
    import importlib

    mods = {m: importlib.import_module("weakdis." + m) for m in MODULES}
    missing = []
    wrappers = {}

    def patch(attr, bindings, make):
        for b in bindings:
            fn = getattr(mods[b], attr, None)
            if not callable(fn):
                missing.append(f"{b}.{attr}")
                continue
            if fn not in wrappers:
                wrappers[fn] = make(fn)
            setattr(mods[b], attr, wrappers[fn])

    for name, attr, bindings, hook in SPANS:
        patch(attr, bindings,
              lambda f, name=name, hook=hook: rec.wrap(name, f, hook))

    def envelope_factory(factory):
        @functools.wraps(factory)
        def make(*args, **kwargs):
            return rec.wrap("lattice.envelope", factory(*args, **kwargs),
                            _count_envelope)
        return make

    for attr, bindings in ENVELOPE_FACTORIES:
        patch(attr, bindings, envelope_factory)

    def moment_weight(f):
        @functools.wraps(f)
        def counted(*args, **kwargs):
            w = f(*args, **kwargs)
            rec.count("partitions.visited")
            if w != 0.0:
                rec.count("partitions.live")
            return w
        return counted

    patch("moment_weight", ["partitions"], moment_weight)

    commands = getattr(mods["cli"], "_COMMANDS", {})
    for key in commands:
        commands[key] = rec.wrap("cli.study", commands[key])
    if not commands:
        missing.append("cli._COMMANDS")

    lattice_cls = mods["lattice"].MomentumLattice
    nu_prop = getattr(lattice_cls, "nu_values", None)
    if isinstance(nu_prop, property):
        def counted_nu_values(self, get=nu_prop.fget):
            rec.count("lattice.nu_values_calls")
            return get(self)

        lattice_cls.nu_values = property(counted_nu_values)
    else:
        missing.append("lattice.MomentumLattice.nu_values")
    return mods["cli"], missing


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True)
    parser.add_argument("--run-id", required=True)
    parser.add_argument("engine_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    engine_args = args.engine_args
    if engine_args[:1] == ["--"]:
        engine_args = engine_args[1:]

    rec = Recorder(args.run_id)
    cli, rec.missing = install(rec)
    code = cli.main(engine_args)
    rec.dump(args.spans, code)
    return code


if __name__ == "__main__":
    sys.exit(main())
