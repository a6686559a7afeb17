"""Per-agent credit balances of a ledger, for the tests.

The simulator never reads a balance: it commits blocks and verifies the
chain.  The tests sum a verified ledger's allocations per agent here to
check that credit is conserved.
"""
from typing import Dict

from tdgsim.ledger import AuditError, Ledger


def balances(ledger: Ledger) -> Dict[str, int]:
    """Millicredits per agent; raises AuditError if the chain is broken."""
    bad = ledger.verify_chain()
    if bad is not None:
        raise AuditError(f"ledger verification failed at block {bad}")
    totals: Dict[str, int] = {}
    for block in ledger.blocks:
        for agent, mc in block.allocations:
            totals[agent] = totals.get(agent, 0) + mc
    return totals


def balance(ledger: Ledger, agent: str) -> int:
    return balances(ledger).get(agent, 0)
