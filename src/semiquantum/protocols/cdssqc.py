"""Controlled direct communication: classical Alice sends a message to a
quantum Bob under the supervision of a quantum controller Charlie.

Two variants:

* GHZ-like: Charlie distributes triples (|psi1>|a> + |psi2>|b>)/sqrt(2);
  his later basis measurement selects which Bell state Alice and Bob
  shared, so Bob cannot decode until Charlie announces branch outcomes.
* Switch: Charlie distributes Bell pairs but permutes Bob's halves; Bob
  cannot pair his qubits with Alice's until Charlie discloses the
  permutation (the "cryptographic switch").

Alice's encoding is classical: measure her qubit in Z, prepare a fresh
qubit carrying message XOR outcome, return everything permuted.
"""
from __future__ import annotations

from enum import Enum
from operator import ne, xor

from ..parties import Permutation, random_permutation
from ..qsim import COMPUTATIONAL, BellKind, OrthonormalPair
from .common import CONTROL, HOME, TRAVEL, Bits, Session, SessionOutcome, SpotCheckedConfig, expect


class CdssqcVariant(Enum):
    GHZ_LIKE = "ghz"
    SWITCH = "switch"


class CdssqcConfig(SpotCheckedConfig):
    variant: CdssqcVariant = CdssqcVariant.GHZ_LIKE
    psi1: BellKind = BellKind.PSI_PLUS
    psi2: BellKind = BellKind.PHI_PLUS
    controller_basis: OrthonormalPair = COMPUTATIONAL
    switch_bell: BellKind = BellKind.PSI_PLUS
    charlie_permutation_enabled: bool = True
    message: Bits | None = None
    MESSAGES = BITS = ("message",)
    CONTROLLED = True

    def __post_init__(self):  # protocols.PROTOCOLS names the variant by its value
        object.__setattr__(self, "variant", CdssqcVariant(self.variant))
        super().__post_init__()
        if self.psi1 is self.psi2 and self.variant is CdssqcVariant.GHZ_LIKE:
            raise ValueError("psi1 and psi2 must differ")

    @property
    def protocol(self) -> str:
        return "cdssqc-ghz" if self.variant is CdssqcVariant.GHZ_LIKE else "cdssqc-switch"


def run_cdssqc_ghz(config: CdssqcConfig) -> SessionOutcome:
    expect(config, "cdssqc-ghz")
    return _run(config)


def run_cdssqc_switch(config: CdssqcConfig) -> SessionOutcome:
    expect(config, "cdssqc-switch")
    return _run(config)


def _run(config: CdssqcConfig) -> SessionOutcome:
    ghz = config.variant is CdssqcVariant.GHZ_LIKE
    session = Session(config, classical="alice")
    alice, bob, charlie = session.alice, session.bob, session.charlie
    transcript, details = session.transcript, session.details
    n, total = session.n, session.total
    basis = config.controller_basis
    message = session.given_or_drawn(alice, "message")

    if ghz:
        step = charlie.step("prepare_ghz_like")
        transcript.log(
            "charlie",
            "prepare_triples",
            count=total,
            psi1=config.psi1.value,
            psi2=config.psi2.value,
        )
        step.prepare_ghz_like(config.psi1, config.psi2, basis, (TRAVEL, HOME, CONTROL), total)
        step.log()
    else:
        step = charlie.step("prepare_bell")
        transcript.log("charlie", "prepare_pairs", count=total, state=config.switch_bell.value)
        step.prepare_bell(config.switch_bell, TRAVEL, HOME, total)
        step.log()
        bob_wire = (  # the switch: slot p's B half goes to Bob's wire bob_wire[p]
            random_permutation(total, charlie.rng)
            if config.charlie_permutation_enabled
            else Permutation.identity(total)
        ).mapping
        transcript.log("charlie", "permute_bob_sequence", size=total)
    transcript.log("charlie", "distribute", to=["alice", "bob"])
    session.send()

    # the Bell state of slot p's A and B qubits: states[g] after Charlie's
    # outcome g on its control qubit, or states[0], the switch's pair state
    states = (config.psi1, config.psi2) if ghz else (config.switch_bell,)
    parities = [k.parity for k in states]
    alice_z, bob_z = alice.step("measure_z"), bob.step("measure_z")
    charlie_ab = charlie.step("measure_ab") if ghz else None

    def spot_mismatches(positions: list[int]) -> int:
        """Each party measures its column of the checked slots: Charlie, Alice, then Bob."""
        gs = charlie_ab.measure_ab([p << 3 | CONTROL for p in positions], basis) if ghz else [0] * len(positions)
        a = alice_z.measure_zs([session.travel[p] for p in positions])
        b = bob_z.measure_zs([p << 3 | HOME for p in positions])
        return sum(map(ne, map(xor, a, b), map(parities.__getitem__, gs)))

    steps = [alice_z, bob_z, charlie_ab] if ghz else [alice_z, bob_z]
    aborted = session.spot_check(charlie, spot_mismatches, steps)
    if aborted:
        return aborted

    # Controller outcomes are sampled now (they commute with everything the
    # other parties do to qubits 1 and 2) and announced at the staged points.
    remaining = session.slots
    if ghz:  # branch[p]: Charlie's outcome on slot p, the index into states
        step = charlie.step("measure_ab")
        branch = dict(zip(remaining, step.measure_ab([p << 3 | CONTROL for p in remaining], basis)))
        step.log()

    encoded = sorted([remaining[i] for i in alice.rng.sample(len(remaining), n)])
    session.exchange(encoded, message, "send_sequence")
    transcript.log("alice", "reveal_split", decoys=session.decoy_wires())
    if ghz:
        outcomes = [[p, branch[p]] for p in session.decoys]
        transcript.log("charlie", "announce_decoy_branches", outcomes=outcomes)
        expected = [states[branch[p]] for p in session.decoys]
    else:
        positions = [[p, bob_wire[p]] for p in session.decoys]
        transcript.log("charlie", "reveal_decoy_partners", positions=positions)
        expected = [states[0]] * len(session.decoys)
    aborted = session.bell_check(expected)
    if aborted:
        return aborted

    mapping = [[i, w] for i, w in enumerate(session.encoded_wires)]
    transcript.log("alice", "reveal_message_permutation", mapping=mapping)
    # Bob reads his own halves of the message copies
    travel_bits = session.received
    partner_bits = session.read(bob, encoded, HOME)
    transcript.log("bob", "measure_remaining", count=n)
    if ghz:
        outcomes = [[p, branch[p]] for p in encoded]
        transcript.log("charlie", "announce_branches", outcomes=outcomes)
        details["travel_bits"] = list(travel_bits)
        details["partner_bits"] = partner_bits
        decoded = tuple(
            [t ^ b ^ parities[branch[p]] for t, b, p in zip(travel_bits, partner_bits, encoded)]
        )
    else:
        # decode guess before the controller's disclosure: pair message slot p
        # with Bob's wire slot p (correct only where the switch is an identity)
        parity = parities[0]
        at_bob_wire = {bob_wire[p]: partner_bits[i] for i, p in enumerate(encoded)}
        details["predisclosure_decode"] = tuple([
            None if at_bob_wire.get(p) is None else travel_bits[i] ^ at_bob_wire[p] ^ parity
            for i, p in enumerate(encoded)
        ])
        mapping = [[p, bob_wire[p]] for p in encoded]
        transcript.log("charlie", "reveal_switch_permutation", mapping=mapping)
        decoded = tuple([t ^ b ^ parity for t, b in zip(travel_bits, partner_bits)])
    transcript.log("bob", "decode", count=n)

    details["match_bits"] = (tuple(message), decoded)
    return session.finish({"alice_sent": tuple(message), "bob_decoded": decoded})
