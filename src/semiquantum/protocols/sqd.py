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

from operator import xor

from ..parties import ClassicalAction, choose_actions
from ..qsim import HOME, BellKind
from .common import Bits, Session, SessionOutcome, SpotCheckedConfig, expect, xor_bits


class SqdConfig(SpotCheckedConfig):
    protocol = "sqd"
    alice_message: Bits | None = None
    bob_message: Bits | None = None
    final_measurement: str = "bell"  # or "zz"
    MESSAGES = BITS = ("alice_message", "bob_message")

    def __post_init__(self):
        super().__post_init__()
        if self.final_measurement not in ("bell", "zz"):
            raise ValueError("final_measurement must be 'bell' or 'zz'")


def decode_dialogue(outcome: BellKind, own_bit: int) -> int:
    """The partner's bit from a final pair outcome and one's own bit."""
    return outcome.parity ^ own_bit


def run_sqd(config: SqdConfig) -> SessionOutcome:
    expect(config, "sqd")
    session = Session(config, classical="bob")
    alice, bob, transcript = session.alice, session.bob, session.transcript
    n = session.n
    m_a = session.given_or_drawn(alice, "alice_message")
    m_b = session.given_or_drawn(bob, "bob_message")

    session.psi_pairs()
    transcript.log("bob", "ack_receipt")
    alice_z, bob_z = alice.step("measure_z"), bob.step("measure_z")

    def spot_mismatches(positions: list[int]) -> int:
        """psi+ pairs are Z-correlated: Alice reads her halves, then Bob his."""
        a = alice_z.measure_zs([p << 3 | HOME for p in positions])
        b = bob_z.measure_zs([session.travel[p] for p in positions])
        return sum(map(xor, a, b))

    aborted = session.spot_check(alice, spot_mismatches, [alice_z, bob_z])
    if aborted:
        return aborted

    remaining = session.slots
    decoys_left = len(remaining) - n
    if decoys_left >= 1:
        actions = choose_actions(n, decoys_left, bob.rng)
        encode = ClassicalAction.MEASURE_AND_PREPARE  # a local: an Enum member read runs Python code
        encoded = [remaining[i] for i, a in enumerate(actions) if a is encode]
    else:  # spot check consumed the whole decoy budget
        encoded = list(remaining)

    zz = config.final_measurement == "zz"

    def receive(rx, i: int, q: int):
        """Alice adds her bit with I/X, then measures the pair: parity or Bell state."""
        home = encoded[i] << 3 | HOME
        if m_a[i]:
            rx.apply_x(q)
        if zz:
            return rx.measure_z(home) ^ rx.measure_z(q)
        return rx.measure_bell(home, q)

    ops = ("apply_x",) if any(m_a) else ()
    ops += ("measure_z",) if zz else ("measure_bell",)
    session.exchange(encoded, m_b, "return_sequence", receive, ops)
    transcript.log("bob", "reveal_decoy_positions", mapping=session.decoy_wires())
    aborted = session.bell_check([BellKind.PSI_PLUS] * len(session.decoys))
    if aborted:
        return aborted

    transcript.log(
        "bob",
        "reveal_message_permutation",
        mapping=[[i, w] for i, w in enumerate(session.encoded_wires)],
    )
    details = session.details
    if zz:
        parities = list(session.received)
        transcript.log("alice", "announce_outcomes", parities=parities)
        bob_decoded = xor_bits(parities, m_b)
        alice_decoded = xor_bits(parities, m_a)
    else:
        outcomes = list(session.received)
        transcript.log("alice", "announce_outcomes", outcomes=[k.symbol for k in outcomes])
        bob_decoded = tuple(map(decode_dialogue, outcomes, m_b))
        alice_decoded = tuple(map(decode_dialogue, outcomes, m_a))
        details["final_outcomes"] = outcomes
    transcript.log("both", "decode", count=n)

    keys = {"alice_sent": m_a, "bob_sent": m_b, "alice_decoded": alice_decoded, "bob_decoded": bob_decoded}
    details["match_bits"] = (m_a + m_b, bob_decoded + alice_decoded)
    return session.finish(keys)
