"""Golden digests for the protocol paths that the benchmark workloads never run.

Each scenario is small (at most 16 nodes, well under a second) and reaches at
least one path that the seed-1 `t1`/`halff` sweeps and the attack batch do
not: an eviction submitted by a named member, departures under `halff`, the
`fixed` policy, pre-GST drops and delays that make an admitted joiner re-send
its request, and absolute-time corruption with each misbehavior that acts
during a run, one of them of a joiner activated before its node is built.
The sha256 of every CSV (the block trace included) and the end time are
pinned, so a refactor that changes the event order on any of these paths
fails here.  The shadowed runs of `tests/test_churn_driver.py` also check
that the correct replicas of these scenarios agree around every tick.
"""

import hashlib

import pytest

from bmsim.harness import write_result_csvs
from bmsim.scenario import scenario_from_dict
from bmsim.simulation import run_scenario


def joins(*names):
    return [{"op": "join", "node": name} for name in names]


def corrupt(*entries):
    return [{"node": node, "at_time": at, "behaviors": [behavior]} for node, at, behavior in entries]


# name -> (scenario, end_time, sha256 of each CSV)
MATRIX = {
    # ChurnDriver's evict branch, with and without `by`; `tob_evict` ordering
    "evict_by": (
        {"seed": 4, "initial_size": 5, "valid_poms": ["n4", "m0"],
         "churn": joins("m0") + [{"op": "evict", "node": "n4", "by": "n1"},
                                 {"op": "evict", "node": "m0"}]},
        2500.0,
        {
            "blocks.csv": "4199778880d788b7caf414c74584bc7db7462d2ba0962948c818f041f5ca40bc",
            "configs.csv": "ca41ef6a4d68bd77361f022761659ff5a16a381a8cd2cea1415d13a609b87c4f",
            "joins.csv": "3d66a934e139f94dd757613a34b1b69a225bbf702d6825f6d2bee36980e92567",
            "updates.csv": "eca936aef250ca2294f46cc4233bea50d6d11e9adebf2a995dddc94eac31b751",
            "votes.csv": "18e17eb33aba615132dac4f0752ea747a33d758bcef0af943942832873901c43",
        },
    ),
    # departures and a join under the halff policy (t = 2 at 13 nodes)
    "halff_leaves": (
        {"seed": 5, "initial_size": 13, "policy": "halff",
         "churn": [{"op": "leave", "node": "n12"}, {"op": "leave", "node": "n11"},
                   {"op": "join", "node": "m0"}, {"op": "leave", "node": "n10"},
                   {"op": "leave", "node": "n9"}]},
        3750.0,
        {
            "blocks.csv": "ce9862b9b76ebe6acbd860d286d3d426ebf96841e19ae5830f31738cc64dc369",
            "configs.csv": "f90f8fcbc9197086ac9052638af9c794f5ec29662c98db7d0fe74c293b97353f",
            "joins.csv": "3cedd2588be2b4353d8a008491f38039ff7754428d18feebdb15a1f3ab8f7a3e",
            "updates.csv": "d43d59338a021feed74e5d98a58c9574b7c07ae4eb1536627f05b03d8b57047c",
            "votes.csv": "396b18ca7e8bae5a9b0ec46a0135654f4df015ec703e942a069d910aea3761ef",
        },
    ),
    # the fixed policy: batched checkpoints and votes every second change
    "fixed": (
        {"seed": 6, "initial_size": 7, "policy": "fixed", "fixed_t": 2,
         "churn": joins("m0", "m1", "m2") + [{"op": "leave", "node": "n0"}]},
        3050.0,
        {
            "blocks.csv": "d2c7183e1668253106efc19a1b92d4d19205b260637cbf9192e44ba280fb33ad",
            "configs.csv": "9041ff73db1b4c3497c96bf19ed7db801b7b28df3953188adf5bdc8aa49b3a2f",
            "joins.csv": "42ee3f799342e73ce54051c58e4d4aa484285e36d178c7e49407f287cf8dee53",
            "updates.csv": "61f73a876b12f4680007cd08e1f04a18b12a17ebf27c310f9f9d5a739ad850e6",
            "votes.csv": "3c4f6610c62401ebcc72ca254c46f8f8339968700960cecd1b51db9863808434",
        },
    ),
    # pre-GST drops and delays; admitted joiners re-send their requests and
    # the replicas answer the re-ordered `tob_join` again
    "pre_gst": (
        {"seed": 13, "initial_size": 4, "churn": joins("m0", "m1"),
         "network": {"gst": 2500.0, "pre_gst_drop_probability": 0.6, "pre_gst_max_delay": 30.0}},
        2600.0,
        {
            "blocks.csv": "1208ea15556ef5016aa45dfcd3859d9621e3232fd4c6de9c7ed8197a0de656c9",
            "configs.csv": "03e8dedf0b39ab01bc0554d29877dc9576f2fd21b6259ddf356924289e4ef767",
            "joins.csv": "a8e2b52baf766668b7ae61e3d17ef21bccd3b869afbde9000518d30c03b20936",
            "updates.csv": "e7ce4b9111d71267023251e167122ba7740342243189e1296ff88322c58e9563",
            "votes.csv": "afdfb7c1bb6e15ea5c9b07f78157a8bfaf16d9d389d32141047dc41476f91c5b",
        },
    ),
    "silent": (
        {"seed": 7, "initial_size": 7, "churn": joins("m0", "m1"),
         "corruption": corrupt(("n0", 10.0, "silent"), ("n3", 50.0, "silent"))},
        4550.0,
        {
            "blocks.csv": "11ebdf1f58d8355cb23e28b3f8fd079aae8f5f384fff9392c0c4e58e1478f79a",
            "configs.csv": "3e5d2945e3df9996585088ed58e5665ffae86703e23fdf9dadb3be40885f26c1",
            "joins.csv": "13425e46324bd82a56ca1bbeb3c9dcfbff0ec6d1820d444014c1bd8e019c672d",
            "updates.csv": "34870e8da2fc5760c9a36a63c12c07ee10350bb3962c78bd861e50db020d323e",
            "votes.csv": "8609ce0fd4ccc69c10c5f60396732d7979af9ca7c24eaa2ca134e5124e51baa1",
        },
    ),
    # the responsible voters withhold, so the backup tier votes
    "withhold_vote": (
        {"seed": 8, "initial_size": 7, "churn": joins("m0", "m1"),
         "corruption": corrupt(("n0", 5.0, "withhold_vote"), ("n1", 5.0, "withhold_vote"))},
        4650.0,
        {
            "blocks.csv": "b173993a0a795a33ac9d3996bd58e1c14cbb1a408cf917c60e114d879aac76d5",
            "configs.csv": "2cf4a4632094dff9f4ea7997e8a1c54b56bf0f482c4a249644f9abaaa8c7feb8",
            "joins.csv": "b28b154670900020ccbb256e70df9cdfbee4f5a7cbc4343735d654eef31d881f",
            "updates.csv": "34870e8da2fc5760c9a36a63c12c07ee10350bb3962c78bd861e50db020d323e",
            "votes.csv": "cead0898a736263f97b1fead35bf7ec56e63e3729ddbd89bcb861b1ea0f12000",
        },
    ),
    "vote_bogus": (
        {"seed": 9, "initial_size": 7, "churn": joins("m0", "m1"),
         "corruption": corrupt(("n0", 5.0, "vote_bogus"), ("n1", 900.0, "vote_bogus"))},
        4650.0,
        {
            "blocks.csv": "f2b24869e8c7be466c5ac6219eddbe0b7b4cdc6102573de4695f64e41cc4cfd5",
            "configs.csv": "2e7b4f93b5e04df9d164ee66f45717924d9af0f5421f40662f3ecd133d739061",
            "joins.csv": "a350a1b517c898ab3aa522dee736dc960fa862f7fc4bccc95779506183cb0bdc",
            "updates.csv": "34870e8da2fc5760c9a36a63c12c07ee10350bb3962c78bd861e50db020d323e",
            "votes.csv": "5f6b8f0c62cdd3abd8d32b31e8c68f4573573b2c282e6b010895c315b22bd248",
        },
    ),
    "drop_messages": (
        {"seed": 10, "initial_size": 7, "churn": joins("m0", "m1", "m2"),
         "corruption": corrupt(("n2", 5.0, "drop_messages"), ("n5", 1300.0, "drop_messages"))},
        6950.0,
        {
            "blocks.csv": "1bbea4f866b7dcb342fc5ac3cd137c275bf1d85f2cdf12878bd770da631f3229",
            "configs.csv": "6b95d753832de25de8f2da3bb9443f295a97832ce85fd633b8f1968f411b1c70",
            "joins.csv": "cb6004d98107f45d64087dcb4636b1361691b3980a6e5e5b3106e5362080048e",
            "updates.csv": "ea268cc548f42806d018a75e3478c83801f8a65cb3290b6b2db4d9ff5002e0d8",
            "votes.csv": "fa1ec6993d2f6fea4c6fec8f4c8c43d2f3e1a587ea6720d9f09b2d17ed6a8582",
        },
    ),
    # m1 is corrupted before its join starts: it takes the behavior when it
    # is built and freezes at the log position it adopts on admission
    "drop_messages_before_join": (
        {"seed": 1, "initial_size": 7,
         "churn": [{"op": "leave", "node": "n5"}] + joins("m0", "m1"),
         "corruption": corrupt(("m1", 8.3, "drop_messages"))},
        3050.0,
        {
            "blocks.csv": "5d64a8a8f0d57cbec28af7e8f9c89c1704563381f4b5d5c1437a2e647a476064",
            "configs.csv": "1882726582003223c5bbe04c963bc7933edf1fcd8535e9748b1d62e28605468d",
            "joins.csv": "efef3fa7394898ee5b5178d3288a9e7b6c57352f5e01febcd462ece493ca1baf",
            "updates.csv": "93b4c1cc423162988f7e43bd0a8258d9e6e333b1887ed55eabf7db959af259bf",
            "votes.csv": "5d8292399dbd40c7b2f1458948fd208bb52d42b8ed66c887279bdad74ba11844",
        },
    ),
}


@pytest.mark.parametrize("name", list(MATRIX))
def test_golden_matrix(name, tmp_path):
    data, end_time, golden = MATRIX[name]
    scenario = scenario_from_dict(dict(data, name=name))
    scenario.validate()
    result = run_scenario(scenario)
    paths = write_result_csvs(result, tmp_path, block_trace=True)
    assert result.completed
    assert result.end_time == end_time
    assert {file: hashlib.sha256(path.read_bytes()).hexdigest() for file, path in paths.items()} == golden


@pytest.mark.parametrize("name", list(MATRIX))
def test_correct_replicas_agree_at_every_checkpoint(name):
    """`ShadowedRun.check_agreement` passed around every tick of the run."""
    # imported here: test_churn_driver imports MATRIX from this module
    from test_churn_driver import oracle

    outcome = oracle(name)
    result = outcome.output[0]
    assert result.completed and result.end_time == MATRIX[name][1]
    interval = scenario_from_dict(dict(MATRIX[name][0], name=name)).checkpoint_interval
    assert outcome.ticks >= result.end_time // interval - 1
