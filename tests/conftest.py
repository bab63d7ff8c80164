"""Every certificate a test emits also replays on a freshly built system.

`prover._certify` replays each certificate on the system it was solved
on, whose row memo the solve has filled: the quotient, its orbits and
:meth:`cone.Quotient.cancel` put every row the certificate names there,
so that replay parses no id.  This fixture replays each certificate that
`_certify` returns once more, after the test, on a new system of the same
structure, mode and family with an empty memo, so each id is parsed and
goes through the parser's family-membership checks.  Each certificate
must also read back from its JSON (`prover.certificate_to_json_dict`,
then `prover.certificate_from_json_dict`) with an equal claimed bound,
entries and denominator, so it was in lowest terms, and the copy read
back must replay too.
"""

import pytest

from qssbounds import cone, prover


@pytest.fixture(autouse=True)
def replay_on_a_fresh_system():
    emitted = []
    certify = prover._certify

    def recorded(system, objective, *args):
        cert = certify(system, objective, *args)
        emitted.append((system, objective, cert))
        return cert

    prover._certify = recorded
    try:
        yield
    finally:
        prover._certify = certify
    for system, objective, cert in emitted:
        fresh = cone.build_system(system.structure, pure=system.pure, ineq=system.ineq)
        assert prover.verify_certificate(fresh, cert, objective=objective), cert
        named = {rid for rid, _ in cert.entries if not rid.startswith("objlink:")}
        assert set(fresh._memo) == named  # each row was parsed from its id
        back = prover.certificate_from_json_dict(prover.certificate_to_json_dict(cert))
        assert (back.claimed_bound, back.entries, back.den) == (
            cert.claimed_bound, cert.entries, cert.den
        ), cert
        assert prover.verify_certificate(fresh, back, objective=objective), back
