"""Timing spans around the package's public callables, installed from outside.

``Tracer.install`` replaces callables on the package's modules and classes
with wrappers and ``uninstall`` puts the originals back; nothing under
``src/`` is edited.  A module-level function is replaced wherever a module
of the package binds it (``from .qsim import measure_z`` makes a second
binding), a method on the class that defines it.

Each span records its name, start, end and parent; all spans under one
``run_session`` call share that session's id.  Self time is a span's
duration minus its children's, so the self times of one session's spans add
up to its root span, which ``selfsum_error`` checks.  The ``light`` mode
wraps only the coarse calls (sessions, runners, the Monte Carlo driver and
serialization) and costs little; ``full`` wraps every layer.
"""
from __future__ import annotations

import itertools
import sys
import time
from collections import Counter

QSIM_FUNCTIONS = (
    "prepare_z", "prepare_bell", "prepare_ghz_like", "merge_registers",
    "apply_cnot", "apply_x", "measure_z", "measure_bell", "measure_ab",
)
BANK_METHODS = (
    "prepare_z", "prepare_bell", "prepare_ghz_like", "cnot", "x",
    "measure_z", "measure_bell", "measure_ab",
)
RNG_DRAWS = ("random", "bit", "bits", "integer", "permutation", "sample", "shuffle", "token")
PARTY_OPS = (
    "prepare_z", "measure_z", "reflect", "permute", "prepare_bell",
    "prepare_ghz_like", "measure_bell", "measure_ab", "cnot", "x",
)
PARTY_FUNCTIONS = ("commit", "verify", "random_permutation", "choose_actions")
ATTACK_HOOKS = ("forward_leg", "wire", "after_wire", "reindex", "finalize")
RUNNERS = ("run_sqka", "run_sqkd", "run_cdssqc_ghz", "run_cdssqc_switch", "run_sqd")
ANALYSIS_FUNCTIONS = ("run_trials", "trial_record", "aggregate_records", "emit_stats", "emit_transcript")
PARTIES = ("alice", "bob", "charlie", "eve")
MODES = ("light", "full")


class Tracer:
    """In-memory span recorder with per-name call counts and times."""

    def __init__(self, keep_spans: int = 0):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.party_ops: Counter = Counter()
        self.max_qubits = 0
        self.sessions: list[list] = []  # [cell, seconds, completed, events]
        self.transcript_bytes = 0
        self.selfsum_error = 0.0  # max over sessions of |root - sum(self)| / root
        self.cell = ""  # cell key credited with the sessions that start now
        self.spans: list[tuple] = []  # (id, parent, session, name, start, end)
        self.keep_spans = keep_spans
        self._stack: list[list] = []  # open spans: [child seconds, id]
        self._session = [0, 0.0]  # current session id, its self-time sum
        self._ids = itertools.count(1)
        self._session_ids = itertools.count(1)
        self._patches: list[tuple] = []

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name, fn, post=None):
        entry = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, session, spans, ids = self._stack, self._session, self.spans, self._ids
        keep = self.keep_spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0, next(ids)]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                own = dur - frame[0]
                entry[0] += 1
                entry[1] += dur
                entry[2] += own
                session[1] += own
                if stack:
                    stack[-1][0] += dur
                if len(spans) < keep:
                    parent = stack[-1][1] if stack else 0
                    spans.append((frame[1], parent, session[0], name, start, end))
            if post is not None:
                post(args, result, dur)
            return result

        traced.__wrapped__ = fn
        return traced

    def _session_root(self, fn):
        session, session_ids = self._session, self._session_ids

        def post(args, outcome, dur):
            self.selfsum_error = max(self.selfsum_error, abs(session[1] - dur) / dur)
            self.sessions.append(
                [self.cell, dur, not outcome.aborted, len(outcome.transcript.events)]
            )

        traced = self._wrap("protocols.run_session", fn, post)

        def run_session(config):
            session[0], session[1] = next(session_ids), 0.0
            try:
                return traced(config)
            finally:
                session[0] = 0

        run_session.__wrapped__ = fn
        return run_session

    def _count_party(self, args, result, dur):
        self.party_ops[args[0].name] += 1

    def _count_qubits(self, args, result, dur):
        self.max_qubits = max(self.max_qubits, len(args[0].labels))

    def _count_bytes(self, args, result, dur):
        self.transcript_bytes += len(result)

    # -- installation ------------------------------------------------------

    def _patch_function(self, module, attr: str, wrapper_for) -> None:
        """Replace ``module.attr`` in every package module that binds it."""
        original = getattr(module, attr)
        wrapper = wrapper_for(original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "semiquantum" or name.startswith("semiquantum.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def _patch_method(self, cls, attr: str, name: str, post=None) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._wrap(name, original, post))

    def install(self, mode: str) -> "Tracer":
        if mode not in MODES:
            raise ValueError(f"unknown trace mode {mode!r}")
        if self._patches:
            raise RuntimeError("tracer already installed")
        from semiquantum import adversary, analysis, parties, protocols, qsim, rng

        self._patch_function(protocols, "run_session", self._session_root)
        for attr in RUNNERS:
            self._patch_function(protocols, attr, lambda f, a=attr: self._wrap(f"protocols.{a}", f))
        for attr in ANALYSIS_FUNCTIONS:
            post = self._count_bytes if attr == "emit_transcript" else None
            self._patch_function(
                analysis, attr, lambda f, a=attr, p=post: self._wrap(f"analysis.{a}", f, p)
            )
        if mode == "light":
            return self

        for attr in QSIM_FUNCTIONS:
            self._patch_function(qsim, attr, lambda f, a=attr: self._wrap(f"qsim.{a}", f))
        self._patch_method(qsim.StateVector, "__init__", "qsim.StateVector", self._count_qubits)
        for attr in BANK_METHODS:
            self._patch_method(qsim.RegisterBank, attr, f"qsim.bank.{attr}")
        self._patch_method(rng.RandomSource, "__init__", "rng.RandomSource")
        for attr in RNG_DRAWS:
            self._patch_method(rng.RandomSource, attr, f"rng.{attr}")
        self._patch_function(rng, "derive_seed", lambda f: self._wrap("rng.derive_seed", f))
        for attr in PARTY_OPS:
            self._patch_method(parties.PartyContext, attr, f"parties.{attr}", self._count_party)
        for attr in PARTY_FUNCTIONS:
            self._patch_function(parties, attr, lambda f, a=attr: self._wrap(f"parties.{a}", f))
        self._patch_method(parties.Permutation, "apply", "parties.Permutation.apply")
        for cls in vars(adversary).values():
            if isinstance(cls, type) and issubclass(cls, adversary.ChannelAttack):
                for attr in ATTACK_HOOKS:
                    if attr in cls.__dict__:
                        self._patch_method(cls, attr, f"adversary.{attr}")
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-ready aggregates; ``merge`` adds snapshots of several processes."""
        return {
            "stats": {k: list(v) for k, v in self.stats.items() if v[0]},
            "party_ops": dict(self.party_ops),
            "max_qubits": self.max_qubits,
            "sessions": [list(s) for s in self.sessions],
            "transcript_bytes": self.transcript_bytes,
            "selfsum_error": self.selfsum_error,
        }


def merge(snapshots: list[dict]) -> dict:
    out = {"stats": {}, "party_ops": Counter(), "max_qubits": 0, "sessions": [],
           "transcript_bytes": 0, "selfsum_error": 0.0}
    for snap in snapshots:
        for name, (calls, total, own) in snap["stats"].items():
            entry = out["stats"].setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += own
        out["party_ops"].update(snap["party_ops"])
        out["max_qubits"] = max(out["max_qubits"], snap["max_qubits"])
        out["sessions"].extend(snap["sessions"])
        out["transcript_bytes"] += snap["transcript_bytes"]
        out["selfsum_error"] = max(out["selfsum_error"], snap["selfsum_error"])
    out["party_ops"] = dict(out["party_ops"])
    return out
