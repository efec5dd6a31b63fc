"""Span arithmetic over one traced run, and the per-layer metrics from it.

Spans are ``[name_id, start_ns, end_ns, parent_index]`` as written by
``tracer.py``.  Self time is a span's duration minus the part of its
interval that its child spans cover.  The time of a group of span names is
the summed duration of the group's spans that have no ancestor in the group,
so nested calls inside the group are not counted twice.
"""

NS = 1e-9


def _union_length(intervals):
    total = 0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Trace:
    """Index over the spans and counters of one traced run."""

    def __init__(self, names, spans, counters=None):
        self.names = list(names)
        self.spans = spans
        self.counters = dict(counters or {})
        self._by_name = {n: [] for n in self.names}
        self._children = [[] for _ in spans]
        for i, (nid, _, _, parent) in enumerate(spans):
            self._by_name[self.names[nid]].append(i)
            if parent >= 0:
                self._children[parent].append(i)

    @classmethod
    def from_json(cls, doc):
        return cls(doc["names"], doc["spans"], doc.get("counters"))

    def calls(self, *names):
        return sum(len(self._by_name.get(n, ())) for n in names)

    def self_s(self, name):
        """Summed self time of every span called name, in seconds."""
        total = 0
        for i in self._by_name.get(name, ()):
            _, lo, hi, _ = self.spans[i]
            covered = _union_length(
                (max(lo, self.spans[c][1]), min(hi, self.spans[c][2]))
                for c in self._children[i]
                if self.spans[c][2] > lo and self.spans[c][1] < hi)
            total += (hi - lo) - covered
        return total * NS

    def time_s(self, *names):
        """Summed duration of the outermost spans of the named group."""
        ids = {self.names.index(n) for n in names if n in self._by_name}
        total = 0
        for n in names:
            for i in self._by_name.get(n, ()):
                _, lo, hi, parent = self.spans[i]
                while parent >= 0 and self.spans[parent][0] not in ids:
                    parent = self.spans[parent][3]
                if parent < 0:
                    total += hi - lo
        return total * NS

    def count(self, key):
        return self.counters.get(key, 0)


def _rate(work, seconds):
    return work / seconds if seconds > 0 else 0.0


# name -> unit for every per-layer metric; ``layer_metrics`` fills them all
LAYER_UNITS = {
    "coefficients.chain_sum_calls": "count",
    "coefficients.chain_sum_s": "s",
    "coefficients.terms": "count",
    "coefficients.terms_per_s": "1/s",
    "coefficients.tail_s": "s",
    "coefficients.tail_calls": "count",
    "dos.coefficient_D_calls": "count",
    "dos.coefficient_D_s": "s",
    "dos.coefficient_D.self_s": "s",
    "dos.expansion_s": "s",
    "dos.mc_s": "s",
    "dos.mc_samples_per_s": "1/s",
    "lattice.envelope_calls": "count",
    "lattice.envelope_points": "count",
    "lattice.envelope_s": "s",
    "lattice.transform_calls": "count",
    "lattice.transform_points": "count",
    "lattice.transform_s": "s",
    "lattice.nu_values_calls": "count",
    "lattice.build_s": "s",
    "montecarlo.realizations": "count",
    "montecarlo.sample_s": "s",
    "montecarlo.assemble_s": "s",
    "montecarlo.estimator.self_s": "s",
    "montecarlo.realizations_per_s": "1/s",
    "montecarlo.std_error": "1",
    "accum.fsum_calls": "count",
    "accum.fsum_elems": "count",
    "accum.fsum_s": "s",
    "accum.fsum_elems_per_s": "1/s",
    "bounds.resolvent_sum_checks": "count",
    "bounds.resolvent_sum_s": "s",
    "bounds.window_points": "count",
    "bounds.weighted_sum_s": "s",
    "bounds.log_integral_s": "s",
    "bounds.main_rhs_s": "s",
    "partitions.visited": "count",
    "partitions.live": "count",
    "partitions.live_ratio": "1",
    "cli.load_config_s": "s",
    "cli.build_model_s": "s",
    "cli.study.self_s": "s",
    "cli.output_bytes": "bytes",
}

# counts that must repeat exactly between traced runs of one seed
EXACT_COUNTS = (
    "coefficients.chain_sum_calls", "coefficients.terms",
    "dos.coefficient_D_calls", "montecarlo.realizations",
    "accum.fsum_calls", "accum.fsum_elems", "bounds.window_points",
    "partitions.visited", "partitions.live",
)

_TRANSFORMS = ("lattice.profile_fourier_periodized",
               "lattice.wavepacket_fourier_periodized")
_TAILS = ("coefficients.truncation_tail_bound", "coefficients.bhat_star_norms")
_ASSEMBLY = ("montecarlo.potential_matrix", "montecarlo.assemble_hamiltonian")
_MC_DRIVERS = ("montecarlo.estimate_expectation",
               "montecarlo.estimate_partial_term", "dos.dos_mc")
_FSUMS = ("accum.fsum_r", "accum.fsum_c")


def layer_metrics(trace, std_error, output_bytes):
    """Every per-layer metric of one traced run.  std_error and output_bytes
    are read from the run's result files by the caller."""
    t = trace
    chain_s = t.time_s("coefficients._chain_sum")
    terms = t.count("coefficients.terms")
    mc_s = t.time_s("dos.dos_mc")
    realizations = t.calls("montecarlo.sample_config")
    fsum_s = t.time_s(*_FSUMS)
    fsum_elems = t.count("accum.fsum_elems")
    visited = t.count("partitions.visited")
    live = t.count("partitions.live")
    return {
        "coefficients.chain_sum_calls": t.calls("coefficients._chain_sum"),
        "coefficients.chain_sum_s": chain_s,
        "coefficients.terms": terms,
        "coefficients.terms_per_s": _rate(terms, chain_s),
        "coefficients.tail_s": t.time_s(*_TAILS),
        "coefficients.tail_calls": t.calls(*_TAILS),
        "dos.coefficient_D_calls": t.calls("dos.dos_coefficient_D"),
        "dos.coefficient_D_s": t.time_s("dos.dos_coefficient_D"),
        "dos.coefficient_D.self_s": t.self_s("dos.dos_coefficient_D"),
        "dos.expansion_s": t.time_s("dos.dos_expansion"),
        "dos.mc_s": mc_s,
        "dos.mc_samples_per_s": _rate(t.count("dos.mc_samples"), mc_s),
        "lattice.envelope_calls": t.calls("lattice.envelope"),
        "lattice.envelope_points": t.count("lattice.envelope_points"),
        "lattice.envelope_s": t.time_s("lattice.envelope"),
        "lattice.transform_calls": t.calls(*_TRANSFORMS),
        "lattice.transform_points": t.count("lattice.transform_points"),
        "lattice.transform_s": t.time_s(*_TRANSFORMS),
        "lattice.nu_values_calls": t.count("lattice.nu_values_calls"),
        "lattice.build_s": t.time_s("lattice.build_lattice"),
        "montecarlo.realizations": realizations,
        "montecarlo.sample_s": t.time_s("montecarlo.sample_config"),
        "montecarlo.assemble_s": t.time_s(*_ASSEMBLY),
        "montecarlo.estimator.self_s": t.self_s("montecarlo.estimate_expectation"),
        "montecarlo.realizations_per_s": _rate(realizations, t.time_s(*_MC_DRIVERS)),
        "montecarlo.std_error": std_error,
        "accum.fsum_calls": t.calls(*_FSUMS),
        "accum.fsum_elems": fsum_elems,
        "accum.fsum_s": fsum_s,
        "accum.fsum_elems_per_s": _rate(fsum_elems, fsum_s),
        "bounds.resolvent_sum_checks": t.calls("bounds.check_resolvent_sum_bound"),
        "bounds.resolvent_sum_s": t.time_s("bounds.check_resolvent_sum_bound"),
        "bounds.window_points": t.count("bounds.window_points"),
        "bounds.weighted_sum_s": t.time_s("bounds.check_weighted_resolvent_sum"),
        "bounds.log_integral_s": t.time_s("bounds.check_log_integral_bound"),
        "bounds.main_rhs_s": t.time_s("bounds.main_error_bound_rhs"),
        "partitions.visited": visited,
        "partitions.live": live,
        "partitions.live_ratio": _rate(live, visited),
        "cli.load_config_s": t.time_s("cli.load_config"),
        "cli.build_model_s": t.time_s("cli.build_model"),
        "cli.study.self_s": t.self_s("cli.study"),
        "cli.output_bytes": output_bytes,
    }
