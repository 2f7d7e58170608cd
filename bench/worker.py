"""One pass of a workload in a fresh interpreter, so every module-level
cache starts cold, as it does for a user's ``klrblocks`` command.

Reads a JSON job on stdin and prints one JSON result line on stdout.  Run
from the root of a checkout, it imports ``klrblocks`` from ``src/``.  Jobs:

- ``{"kind": "sweep", "kappa_c": [...], "max_n": H, "checks": [...]}``
  runs ``iter_bridges`` -> ``verify_bridge`` -> ``json.dumps`` of the
  report, as ``klrblocks verify`` does.  One op is one bridge.  Its output
  also holds a digest of the bridge's type-C and type-A blocks, as
  ``c_block`` and ``a_block`` returned them.
- ``{"kind": "queries", "argvs": [[...], ...]}`` runs ``cli.main(argv)``
  in-process with stdout captured.  One op is one query.

Every op's time is also given in reference milliseconds (``ops_ref_ms``):
scaled by the speed of a fixed pure-Python probe loop timed beside it
(``probe_ms``), so that changes in the speed of the machine cancel.

Optional keys: ``"trace"`` (wrap the package with ``spans.Tracer``),
``"per_check"`` (traced sweeps: one ``verify_bridge`` call per check, so
that a check's time is its span minus the block enumeration inside it),
``"spans_out"`` (write the spans there) and ``"setup_only"`` (stop before
the first op).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# The probe's best time on the 2-core machine the benchmark was written
# on; reference milliseconds are milliseconds at that speed.
PROBE_REF_MS = 0.1
PROBE_EVERY_S = 0.02  # probe before an op when this long has gone by


def probe_ms() -> float:
    """The best of three timings of a fixed pure-Python loop, in ms.  It
    uses nothing from klrblocks, so it measures only the machine's speed.
    It builds tuples and looks them up in a dict, as the package does: on
    a shared machine that slows down with the package, where plain integer
    arithmetic slows down less."""
    best = float("inf")
    for _ in range(3):
        t = time.perf_counter()
        d: dict = {}
        for i in range(200):
            key = (i % 7, i % 11, i % 13)
            d[key] = d.get(key[:2], 0) + len(key)
        sorted(d)
        best = min(best, time.perf_counter() - t)
    return best * 1e3


def at_ref_speed(t: float, before: float, after: float) -> float:
    """A time scaled to the reference speed, from the probes (ms) taken on
    either side of it."""
    return t * PROBE_REF_MS * 2 / (before + after)


def sha16(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _canon(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def math_content(check: str, body: dict):
    """The mathematical content of one check's report entry, without its
    verdict fields, in a canonical order."""
    if check == "count":
        return sorted([s["nu"], s["factorizable"], s["rho_times_a"]]
                      for s in body["per_shape"])
    if check == "graded":
        return sorted([s["nu"], s["lhs"], s["rhs"]] for s in body["per_shape"])
    if check == "dominance":
        return {"witnesses": sorted(w["pair"] for w in body["witnesses"]),
                "order_preserving": body["order_preserving"]}
    if check == "kleshchev":
        return {"a_image": sorted(body["a_image"]),
                "c_set": sorted(body["c_set"])}
    if check == "goodpath":
        return sorted(body["failures"])
    raise ValueError(f"unknown check {check!r}")


def block_digest(c_shapes, a_shapes) -> str:
    return sha16(_canon({"c": sorted(c_shapes), "a": sorted(a_shapes)}))


class BlockRecorder:
    """Rebinds ``morita.c_block`` and ``morita.a_block`` to keep what they
    return during an op, so that the blocks can be checked against the pinned
    data without enumerating them a second time.  An op that does not call
    them has its blocks enumerated after the timed section."""

    NAMES = ("c_block", "a_block")

    def __init__(self, morita):
        missing = [n for n in self.NAMES if not hasattr(morita, n)]
        if missing:
            raise SystemExit(f"worker: klrblocks.morita has no {', '.join(missing)}")
        self.orig = {n: getattr(morita, n) for n in self.NAMES}
        self.seen: dict = {}
        for name, fn in self.orig.items():
            setattr(morita, name, self._recording(name, fn))

    def _recording(self, name, fn):
        seen = self.seen

        def rec(b):
            out = fn(b)
            seen[name] = out
            return out
        return rec

    def take(self):
        """The digest of the blocks the last op enumerated, or None if it
        did not call both functions."""
        seen = [self.seen.pop(n, None) for n in self.NAMES]
        return None if None in seen else block_digest(*seen)

    def enumerate(self, b) -> str:
        return block_digest(*(self.orig[n](b) for n in self.NAMES))


def sweep_output(report: dict, checks, block: str) -> dict:
    """What run.py compares against the pinned data for one bridge."""
    b, body = report["bridge"], report["checks"]
    digests = {c: sha16(_canon(math_content(c, body[c]))) for c in checks}
    digests["block"] = block
    out = {"key": f"{b['kappa_c']}:{_canon(b['beta'])}",
           "kappa_c": b["kappa_c"],
           "height": sum(b["beta"].values()),
           "digests": digests}
    if "dominance" in checks:
        out["witnesses"] = len(body["dominance"]["witnesses"])
        out["order_preserving"] = body["dominance"]["order_preserving"]
    return out


def sweep_op(morita, checks, tracer, per_check, b):
    if not per_check:
        report = morita.verify_bridge(b, checks)
    else:  # merged in check order, as one call with every check builds it
        report = None
        for c in checks:
            with tracer.span(f"bench.check.{c}"):
                part = morita.verify_bridge(b, [c])
            if report is None:
                report = part
            else:
                report["checks"].update(part["checks"])
        report["pass"] = all(v["pass"] for v in report["checks"].values())
    with tracer.span("json.dumps") if tracer else contextlib.nullcontext():
        text = json.dumps(report, separators=(",", ":"))
    return report, text


def query_op(cli, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, f"{code}\n{buf.getvalue()}"


def main() -> int:
    job = json.load(sys.stdin)
    if not os.path.isfile(os.path.join("src", "klrblocks", "__init__.py")):
        print("worker: no src/klrblocks here; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    sys.path.insert(1, HERE)

    probe_before_setup = probe_ms()
    t_setup = time.perf_counter()
    import klrblocks
    from klrblocks import cli, morita
    if not os.path.abspath(klrblocks.__file__).startswith(os.path.abspath("src")):
        print(f"worker: imported {klrblocks.__file__}, not ./src", file=sys.stderr)
        return 2

    recorder = BlockRecorder(morita) if job["kind"] == "sweep" else None
    tracer = None
    if job.get("trace"):
        import spans
        tracer = spans.Tracer()
        tracer.install(spans.TRACED if not job.get("per_check")
                       else [("morita.c_block", "len"), ("morita.a_block", "len")])

    if job["kind"] == "sweep":
        checks = list(job["checks"])
        inputs = [b for kc in job["kappa_c"]
                  for b in morita.iter_bridges(kc, job["max_n"])]

        def op(b):
            return sweep_op(morita, checks, tracer, job.get("per_check"), b)
    elif job["kind"] == "queries":
        inputs = job["argvs"]

        def op(argv):
            return query_op(cli, argv)
    else:
        raise ValueError(f"unknown job kind {job['kind']!r}")
    setup_s = time.perf_counter() - t_setup
    probes = [probe_ms()]  # probes[k] is taken before op probe_at[k]
    probe_at = [0]
    setup_ref_s = at_ref_speed(setup_s, probe_before_setup, probes[0])
    if job.get("setup_only"):
        inputs = []

    ops_ms, results, blocks = [], [], []
    probe_s = 0.0  # probe time inside the timed section, not counted in it
    last_probe = t0 = time.perf_counter()
    for i, x in enumerate(inputs):
        if i and time.perf_counter() - last_probe >= PROBE_EVERY_S:
            p = time.perf_counter()
            probes.append(probe_ms())
            probe_at.append(i)
            last_probe = time.perf_counter()
            probe_s += last_probe - p
        a = time.perf_counter()
        try:
            results.append(op(x))
        except Exception as exc:  # an op that raises fails; the pass goes on
            results.append((None, f"raised {exc!r}"))
        ops_ms.append((time.perf_counter() - a) * 1e3)
        if recorder is not None:
            blocks.append(recorder.take())
    wall_s = time.perf_counter() - t0 - probe_s
    probes.append(probe_ms())
    probe_at.append(len(inputs))
    ops_ref_ms, k = [], 0
    for i, ms in enumerate(ops_ms):
        while probe_at[k + 1] <= i:
            k += 1
        ops_ref_ms.append(at_ref_speed(ms, probes[k], probes[k + 1]))

    result = {
        "setup_s": setup_s,
        "setup_ref_s": setup_ref_s,
        "wall_s": wall_s,
        "ops_ms": ops_ms,
        "ops_ref_ms": ops_ref_ms,
        "probe_ms": probes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary(since=t0)
        caches = {"kleshchev": ("crystal", "_kleshchev"),
                  "partitions_of": ("partitions", "partitions_of")}
        result["caches"] = {}
        for name, (mod, attr) in caches.items():
            fn = getattr(sys.modules.get(f"klrblocks.{mod}"), attr, None)
            if hasattr(fn, "cache_info"):
                result["caches"][name] = fn.cache_info()._asdict()
        if job.get("spans_out"):
            tracer.write(job["spans_out"])

    texts = [text for _, text in results]
    if job["kind"] == "sweep":
        outputs = [sweep_output(r, checks, block or recorder.enumerate(b))
                   if r is not None else {}
                   for (r, _), block, b in zip(results, blocks, inputs)]
    else:
        outputs = [sha16(text) for text in texts]
    result.update(
        outputs=outputs,
        bytes_digests=[sha16(text) for text in texts],
        exit_codes=[code for code, _ in results] if job["kind"] == "queries" else [],
        output_bytes=sum(len(text.encode()) for text in texts),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
