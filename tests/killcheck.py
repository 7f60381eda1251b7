"""Test-only oracle for ``Network.kill_message``: the whole-fabric scan.

``kill_message`` purges along ``msg.trail`` — the source NI, its host
link, the routers the header entered and their outgoing links.  The
scan below is what it used to do instead (every link, every input and
output VC of every router), kept here so the tests can prove after
every kill that nothing of the worm was anywhere else.
"""

from __future__ import annotations

from typing import List

from repro.network.network import Network
from repro.obs.invariants import check_credits


def fabric_residue(network: Network, msg) -> List[str]:
    """Every place in ``network`` that still holds something of ``msg``."""
    found = []
    for node, ni in network.interfaces.items():
        for vc in ni.vcs:
            if any(queued is msg for queued in vc.queue):
                found.append(f"NI {node} vc {vc.index} queue")
    for link in network.links:
        if any(entry[1] is msg for entry in link.pending):
            found.append(f"link {link.label} wire")
        if link.faults is not None and msg.msg_id in link.faults.broken:
            found.append(f"link {link.label} broken set")
    for router in network.routers:
        rid = router.router_id
        for port_vcs in router.inputs:
            for vc in port_vcs:
                if any(rec.msg is msg for rec in vc.messages):
                    found.append(f"router {rid} in ({vc.port},{vc.index})")
        for port_ovcs in router.outputs:
            for ovc in port_ovcs:
                if ovc.owner is msg:
                    found.append(f"router {rid} out ({ovc.port},{ovc.index}) owner")
                if any(staged is msg for staged, _ in ovc.queue):
                    found.append(f"router {rid} out ({ovc.port},{ovc.index}) staged")
    return found


def audit_kill(network: Network, msg) -> None:
    """Assert a just-killed ``msg`` left nothing behind and the books balance."""
    assert fabric_residue(network, msg) == [], (msg, msg.trail)
    network.check_conservation()
    check_credits(network)


def audit_every_kill(monkeypatch) -> list:
    """Wrap ``Network.kill_message`` so :func:`audit_kill` follows each kill.

    Returns the list the wrapper appends every killed message to.
    """
    killed: list = []
    kill_message = Network.kill_message

    def audited(network, msg):
        dropped = kill_message(network, msg)
        killed.append(msg)
        audit_kill(network, msg)
        return dropped

    monkeypatch.setattr(Network, "kill_message", audited)
    return killed
