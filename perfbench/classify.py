"""Failure classifier: why one study invocation counts as failed.

An invocation fails when any of these holds:

- its exit code is not 0 (the studies run with ``--check``);
- a result file holds a non-finite number (``NaN``/``Infinity`` in JSON,
  ``nan``/``inf`` in CSV);
- its result files differ byte for byte from the first passing invocation
  of the same code, workload and seed;
- a deterministic value is more than ``REL_TOL`` relative from the value
  recorded in ``reference.json``.
"""

import hashlib
import re

REL_TOL = 1e-9

_NON_FINITE = re.compile(r"(?<![\w.])[-+]?(?:nan|inf(?:inity)?)(?![\w.])",
                         re.IGNORECASE)


def digest(files):
    """One hash over the names and bytes of a run's result files."""
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode() + b"\0" + files[name] + b"\0")
    return h.hexdigest()


def non_finite_tokens(files):
    """{file name: first non-finite token} for every file that has one."""
    found = {}
    for name, data in files.items():
        m = _NON_FINITE.search(data.decode(errors="replace"))
        if m:
            found[name] = m.group(0)
    return found


def reference_mismatches(values, reference):
    """Keys whose values lie more than REL_TOL from the reference, relative
    to the largest reference magnitude of that key.  A key on one side only
    is a mismatch too."""
    bad = sorted(set(values) ^ set(reference))
    for key in sorted(set(values) & set(reference)):
        got, want = values[key], reference[key]
        scale = max(abs(x) for x in want)
        if len(got) != len(want) or any(
                not abs(g - w) <= REL_TOL * scale for g, w in zip(got, want)):
            bad.append(key)
    return bad


def classify(exit_code, files, first_digest=None, values=None, reference=None):
    """List of failure reasons for one invocation; empty means it passed."""
    reasons = []
    if exit_code != 0:
        reasons.append(f"exit code {exit_code}")
    if not files:
        reasons.append("no result files")
    for name, token in sorted(non_finite_tokens(files).items()):
        reasons.append(f"non-finite {token!r} in {name}")
    if first_digest is not None and digest(files) != first_digest:
        reasons.append("result files differ from the first passing run of this code and seed")
    if reference is not None:
        bad = reference_mismatches(values or {}, reference)
        if bad:
            reasons.append(f"{len(bad)} values off the reference, first {bad[0]!r}")
    return reasons
