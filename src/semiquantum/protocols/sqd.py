"""Dialogue: simultaneous two-way messaging between quantum Alice and
classical Bob over shared psi+ pairs.

Bob encodes exactly as in the key-agreement flow (measure, XOR, fresh
qubit, permute).  Alice encodes her own bit on each returned message qubit
with I/X and measures the partner pair in the Bell basis, announcing the
outcomes; the outcome's psi/phi class equals the XOR of both message bits,
so each side recovers the other's bit from its own.  A computational-basis
pair measurement works identically and is available behind a config flag.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from ..adversary import AttackStrategy, build_attack
from ..errors import ZeroCount
from ..parties import (
    Capability,
    ClassicalAction,
    PartyContext,
    Permutation,
    choose_actions,
    random_permutation,
)
from ..qsim import BellKind, RegisterBank
from ..rng import RandomSource
from .common import AbortReason, Bits, SessionOutcome, Transcript


@dataclass(frozen=True)
class SqdConfig:
    n: int
    m: int | None = None
    alice_message: Bits | None = None
    bob_message: Bits | None = None
    seed: int = 0
    attack: AttackStrategy = field(default_factory=AttackStrategy.none)
    threshold: float = 0.0
    spot_check_size: int | None = None
    permutation_enabled: bool = True
    final_measurement: str = "bell"  # or "zz"

    def decoy_count(self) -> int:
        return 3 * self.n if self.m is None else self.m

    def spot_count(self) -> int:
        s = self.spot_check_size
        if s is None:
            s = min(self.decoy_count(), 2 * self.n)
        if not 0 <= s <= self.decoy_count():
            raise ValueError("spot check size must lie within the decoy budget")
        return s


def decode_dialogue(outcome: BellKind, own_bit: int) -> int:
    """The partner's bit from a final pair outcome and one's own bit."""
    return outcome.parity ^ own_bit


def run_sqd(config: SqdConfig) -> SessionOutcome:
    n = config.n
    m = config.decoy_count()
    if n < 1 or m < 1:
        raise ZeroCount(f"need n >= 1 and m >= 1, got n={n}, m={m}")
    if config.final_measurement not in ("bell", "zz"):
        raise ValueError("final_measurement must be 'bell' or 'zz'")

    root = RandomSource(config.seed)
    bank = RegisterBank()
    transcript = Transcript()
    alice = PartyContext("alice", Capability.QUANTUM, root.spawn(1), bank)
    bob = PartyContext("bob", Capability.CLASSICAL, root.spawn(2), bank)
    eve_rng = (
        RandomSource(config.attack.eve_rng_seed)
        if config.attack.eve_rng_seed is not None
        else root.spawn(3)
    )
    eve = PartyContext("eve", Capability.QUANTUM, eve_rng, bank)
    attack = build_attack(config.attack, "sqd", eve)

    total = n + m
    m_a = config.alice_message if config.alice_message is not None else alice.rng.bits(n)
    m_b = config.bob_message if config.bob_message is not None else bob.rng.bits(n)
    if len(m_a) != n or len(m_b) != n:
        raise ValueError("messages must have length n")

    transcript.log("alice", "prepare_pairs", count=total, state=BellKind.PSI_PLUS.value)
    travel: list[str] = []
    for i in range(total):
        alice.prepare_bell(BellKind.PSI_PLUS, f"H{i}", f"T{i}")
        travel.append(f"T{i}")
    transcript.log("alice", "send_travel", count=total)
    travel = attack.forward_leg("forward", travel)
    transcript.log("bob", "ack_receipt")

    s = config.spot_count()
    spot_positions = sorted(alice.rng.sample(total, s)) if s else []
    spot_mismatches = 0
    for p in spot_positions:
        u = alice.measure_z(f"H{p}")
        v = bob.measure_z(travel[p])
        if u ^ v:  # psi+ pairs are Z-correlated
            spot_mismatches += 1
    spot_rate = spot_mismatches / s if s else 0.0
    transcript.log(
        "all", "correlation_check",
        positions=list(spot_positions), mismatches=spot_mismatches, checked=s,
    )

    details: dict = {
        "spot_checked": s,
        "spot_mismatches": spot_mismatches,
        "decoy_checked": 0,
        "decoy_mismatches": 0,
        "eve_truth": tuple(m_b),
    }

    def finish(aborted, reason, keys, error_rate) -> SessionOutcome:
        details["party_ops"] = {
            "alice": sorted(set(alice.ops_log)),
            "bob": sorted(set(bob.ops_log)),
        }
        return SessionOutcome(
            protocol="sqd",
            aborted=aborted,
            abort_reason=reason,
            keys=keys,
            transcript=transcript,
            error_rate_observed=error_rate,
            eve_inferences=attack.state.inferred_bits,
            raw=None,
            details=details,
        )

    if s and spot_rate > config.threshold:
        transcript.log("alice", "abort", reason=AbortReason.CORRELATION_MISMATCH.value)
        attack.finalize([])
        return finish(True, AbortReason.CORRELATION_MISMATCH, {}, spot_rate)

    spot_set = set(spot_positions)
    remaining = [p for p in range(total) if p not in spot_set]
    attack.reindex(remaining)
    local_index = {p: i for i, p in enumerate(remaining)}
    decoys_left = m - s
    size = len(remaining)

    if decoys_left >= 1:
        actions = choose_actions(n, decoys_left, bob.rng)
        measured_local = [
            i for i, a in enumerate(actions) if a is ClassicalAction.MEASURE_AND_PREPARE
        ]
    else:  # spot check consumed the whole decoy budget
        measured_local = list(range(size))
    encode_positions = [remaining[i] for i in measured_local]
    encode_index = {p: i for i, p in enumerate(encode_positions)}
    decoy_positions = [p for p in remaining if p not in encode_index]

    r_b: list[int] = []
    out_seq: list[str] = []
    for p in remaining:
        if p in encode_index:
            idx = encode_index[p]
            outcome = bob.measure_z(travel[p])
            r_b.append(outcome)
            out_seq.append(bob.prepare_z(outcome ^ m_b[idx], f"B{p}"))
        else:
            out_seq.append(bob.reflect(travel[p]))
    transcript.log("bob", "encode", count=n)

    pi = (
        random_permutation(size, bob.rng)
        if config.permutation_enabled
        else Permutation.identity(size)
    )
    wire = bob.permute(pi, out_seq)
    transcript.log("bob", "return_sequence", count=size)

    # per-wire processing (see sqka runner note on commuting wire-order sampling)
    origin_of_wire = {pi.destination(i): remaining[i] for i in range(size)}
    bell_outcomes: dict[int, BellKind] = {}
    final_parity: dict[int, int] = {}
    final_kind: dict[int, BellKind] = {}
    for j in range(size):
        qubit = attack.wire("return", j, wire[j])
        p = origin_of_wire[j]
        if p in encode_index:
            idx = encode_index[p]
            if m_a[idx]:
                alice.x(qubit)
            if config.final_measurement == "bell":
                kind = alice.measure_bell(f"H{p}", qubit)
                final_kind[p] = kind
                final_parity[p] = kind.parity
            else:
                u = alice.measure_z(f"H{p}")
                v = alice.measure_z(qubit)
                final_parity[p] = u ^ v
        else:
            bell_outcomes[p] = alice.measure_bell(f"H{p}", qubit)
        attack.after_wire("return", j)

    transcript.log("alice", "ack_receipt")
    decoy_wire = {p: pi.destination(local_index[p]) for p in decoy_positions}
    transcript.log(
        "bob", "reveal_decoy_positions", mapping=sorted([p, w] for p, w in decoy_wire.items())
    )

    decoy_mismatches = sum(
        1 for p in decoy_positions if bell_outcomes[p] is not BellKind.PSI_PLUS
    )
    decoy_rate = decoy_mismatches / decoys_left if decoys_left else 0.0
    transcript.log("alice", "bell_check", mismatches=decoy_mismatches, checked=decoys_left)
    details["decoy_checked"] = decoys_left
    details["decoy_mismatches"] = decoy_mismatches

    encoded_wires = [pi.destination(local_index[p]) for p in encode_positions]
    attack.finalize(encoded_wires)
    details["encoded_origins"] = list(encode_positions)
    details["encoded_wires"] = list(encoded_wires)

    error_rate = (spot_mismatches + decoy_mismatches) / max(s + decoys_left, 1)

    if decoys_left and decoy_rate > config.threshold:
        transcript.log("alice", "abort", reason=AbortReason.BELL_MISMATCH.value)
        return finish(True, AbortReason.BELL_MISMATCH, {}, error_rate)

    transcript.log(
        "bob", "reveal_message_permutation", mapping=[[i, w] for i, w in enumerate(encoded_wires)]
    )

    parities = tuple(final_parity[p] for p in encode_positions)
    if config.final_measurement == "bell":
        outcomes = [final_kind[p] for p in encode_positions]
        transcript.log("alice", "announce_outcomes", outcomes=[k.value for k in outcomes])
        bob_decoded = tuple(decode_dialogue(outcomes[i], m_b[i]) for i in range(n))
        alice_decoded = tuple(decode_dialogue(outcomes[i], m_a[i]) for i in range(n))
        details["final_outcomes"] = outcomes
    else:
        transcript.log("alice", "announce_outcomes", parities=list(parities))
        bob_decoded = tuple(parities[i] ^ m_b[i] for i in range(n))
        alice_decoded = tuple(parities[i] ^ m_a[i] for i in range(n))
    details["final_parities"] = parities
    transcript.log("both", "decode", count=n)

    keys = {
        "alice_sent": tuple(m_a),
        "bob_sent": tuple(m_b),
        "alice_decoded": alice_decoded,
        "bob_decoded": bob_decoded,
    }
    details["match_bits"] = (
        tuple(m_a) + tuple(m_b),
        bob_decoded + alice_decoded,
    )
    details["r_b"] = tuple(r_b)
    return finish(False, AbortReason.NONE, keys, error_rate)
