"""Prints one ACCEPTANCE line per criterion after the run.

Criteria split across several test functions (test_criterion_NNx) are
aggregated with AND, so a red part makes the whole criterion FAIL. A
failure in any phase counts, so a fixture that errors in setup or
teardown fails its criterion too, and a file that fails to collect fails
every criterion its source names.
"""

import re

_results = {}
_rootpath = []


def pytest_configure(config):
    _rootpath.append(config.rootpath)


def pytest_collectreport(report):
    # an import error runs none of the file's criteria, so none may read PASS
    if not report.failed:
        return
    try:
        source = (_rootpath[-1] / report.fspath).read_text()
    except OSError:
        return
    for n in re.findall(r"test_criterion_(\d+)", source):
        _results[int(n)] = False


def pytest_runtest_logreport(report):
    if report.when != "call" and not report.failed:
        return
    match = re.search(r"test_criterion_(\d+)", report.nodeid)
    if match:
        n = int(match.group(1))
        _results[n] = _results.get(n, True) and report.passed


def pytest_terminal_summary(terminalreporter):
    if not _results:
        return
    terminalreporter.write_line("")
    for n in sorted(_results):
        verdict = "PASS" if _results[n] else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE {n}: {verdict}")
