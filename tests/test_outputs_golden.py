"""Golden digests of solve's results on three benchmark workloads.

For `search`, `codebook` and `verify` at seed 3, `dump_outputs.dump` hashes
every instance's code, costs, bounds, mode, cost-graph sizes and group count
("results sha256"), and `dump_outputs.dump_cli` hashes what `lettercost
solve --emit tsv` prints for each instance file, less its guesses line
("cli results sha256"). Neither digest covers the search's effort, so a
change that moves only how hard the search works keeps them. A refactor
must keep both as they are; record them again only for a change meant to
alter codes or costs. The nodes that the searches explored in all, and
their leaves, which `dump` also prints, must stay at or below EXPLORED and
LEAVES: a change that loosens the search's completion bound or lengthens
its capacity lists keeps the digests but not these totals.
On `verify`, `dump_outputs.dump_oracle` hashes each instance's exact
optimum: codewords, optimal_cost and nodes_explored. A change to the exact
oracle must keep that digest and the states settled in all, ORACLE.
`tiny` is left out: its `n <= 512` prefix self-check makes it four times
slower than the other three together.
"""

import re

import pytest

from dump_outputs import dump, dump_cli, dump_oracle

GOLDEN = {
    "search": (
        "3739bb37dabd363ff268826054336a26b675a8af162d6189bae1f16625c27476",
        "b7a4cae3f8d90ff9657329148e780f3bd7baba6aeed60a20ba91e97c731c0ae5",
    ),
    "codebook": (
        "47da24901379426d62ccd06c367e92ca2418f39e5854da2a13df9cd84ad830f5",
        "e08c3f6277448d6d50d3735447bc8796b3b5d253d3ab439384f42829e9663685",
    ),
    "verify": (
        "c79bc3dfdcc29321703c1a2ac393ddd9e0eef4dfbdee05758f5846814be52903",
        "c3636a714d3839df6bc861dff3edec4c711b024163d92e51a1f509d70e40e305",
    ),
}


# explored totals at seed 3 once each node's capacity list ended where its
# own completion bound says no cheaper leaf can go; with lists ending at the
# reach that its parent priced they were 10,842, 5,409 and 4,263, and under
# the plain sum of capacities 13,485, 5,409 and 4,944
EXPLORED = {"search": 10703, "codebook": 5409, "verify": 4197}
# leaves totals (guess_count summed) at seed 3
LEAVES = {"search": 331, "codebook": 619, "verify": 178}


@pytest.mark.parametrize("workload", sorted(GOLDEN))
def test_results_digests(workload):
    line = dump(workload, 3)
    assert int(re.search(r"explored (\d+),", line).group(1)) <= EXPLORED[workload]
    assert int(re.search(r"leaves (\d+),", line).group(1)) <= LEAVES[workload]
    results = re.search(r"results sha256 (\w+)$", line).group(1)
    cli_results = re.search(r"cli results sha256 (\w+)$", dump_cli(workload, 3)).group(1)
    assert (results, cli_results) == GOLDEN[workload]


# the oracle digest and the states settled in all on verify at seed 3
ORACLE = ("42e453c2b240a6d39309527db4725f19b58c53e166e362ce843966f4410f63bb", 896)


def test_oracle_digest():
    line = dump_oracle(3)
    settled = int(re.search(r"settled (\d+),", line).group(1))
    assert (re.search(r"oracle sha256 (\w+)$", line).group(1), settled) == ORACLE
