"""The package's public names resolve, and the oracle's verdict statistics
are defined in ``verify`` alone, beside the cases they judge."""
import qkd_eve_lab
from qkd_eve_lab import montecarlo, verify

VERDICT_NAMES = ["Report", "compare", "binomial_p_value", "holm_rejections", "FAMILY_ALPHA"]


def test_every_public_name_resolves():
    missing = [name for name in qkd_eve_lab.__all__ if not hasattr(qkd_eve_lab, name)]
    assert missing == []


def test_verdict_statistics_are_defined_in_verify_only():
    for name in VERDICT_NAMES:
        value = getattr(verify, name)
        assert getattr(value, "__module__", verify.__name__) == verify.__name__, name
        assert not hasattr(montecarlo, name), name
    assert qkd_eve_lab.Report is verify.Report
    assert qkd_eve_lab.compare is verify.compare
