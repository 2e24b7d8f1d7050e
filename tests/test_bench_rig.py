"""The benchmark rig still wires and runs a session over both transports.

perfbench/run.py builds its sessions from the package's public names
(``ProvisionerService(push=)``, ``push_segment``, ``register_receiver``,
``MinerReceiver``, ``callback_url``, ``enqueue``) and traces the names the
package calls them by. This runs one small traced session per transport,
so a change that breaks that wiring, or renames a traced name so that its
metric silently reads 0, fails here and not only in a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bench():
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(PERFBENCH))
    sys.dont_write_bytecode = True  # leave no cache files in the benchmark's directory
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # its dataclasses look the module up
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.modules.pop("perfbench_run", None)
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_flag


@pytest.mark.parametrize("networked", [False, True])
def test_rig_session_succeeds(bench, identity, networked):
    cf = bench.import_confine()
    w = bench.Workload(cases=30, loop_iterations=1, org_count=3, seg_size=1024, networked=networked)
    inputs = bench.make_inputs(cf, w, 42, 1)
    registry = cf.ReferenceRegistry.of(identity.measurement)
    result = bench.one_session(cf, w, inputs, identity, registry, {}, traced=True)
    assert result.error is None
    assert result.layers["transport.push_s"] > 0
    # the traced seal and open names must still be called by these names
    assert result.layers["provisioner.seal_s"] > 0
    assert result.layers["wire.decrypt_s"] > 0
    # so must the intake names: parse each segment, merge each case's parts
    assert result.layers["wire.parse_payload_s"] > 0
    assert result.layers["merge.merge_case_s"] > 0
    assert result.layers["merge.parts_per_case"] > 1
    # and the fold of the merged cases' activity sequences
    assert result.layers["hminer.accumulate_s"] > 0
    # and the message codec, through the base64 and envelope names the rig patches
    assert result.layers["codec.b64u_encode_s"] > 0
    assert result.layers["codec.b64u_decode_s"] > 0
    assert result.layers["wire.envelope_decode_s"] > 0
    # and the provider side, which the rig times by these names too
    assert result.layers["provisioner.segment_log_s"] > 0
    assert result.layers["eventlog.parse_csv_s"] > 0
