"""CONFINE: confidential process mining across organizations.

Organizations keep their raw events local; an attested miner enclave
receives encrypted per-case segments, merges sub-traces and mines a
heuristics net that matches what a single trusted party would compute
on the pooled log.
"""

from .attest import (
    AttestationReport,
    EnclaveIdentity,
    ReferenceRegistry,
    compute_measurement,
    default_measurement,
    verify_report,
)
from .eventlog import (
    Event,
    EventLog,
    LogParseError,
    LogSchemaError,
    PartitionError,
    merge_case,
    parse_csv,
    parse_log,
    parse_timestamp,
    parse_xes,
    partition_by_org,
    serialize_log,
)
from .harness import (
    ScenarioParams,
    generate_scenario_log,
    run_convergence,
    run_memory_experiment,
    run_protocol,
    run_scalability_suite,
    split_real_log,
    standalone_net,
)
from .hminer import (
    Arc,
    DfStats,
    HeuristicsNet,
    MinerConfig,
    accumulate,
    build_net,
    serialize_net,
)
from .miner import (
    DEFAULT_CAPACITY,
    AttestationRejectedError,
    DeliveryError,
    EnclaveBudget,
    EnclaveMemoryExceeded,
    IncompleteDeliveryError,
    MinerReceiver,
    MinerSession,
)
from .provisioner import AccessDeniedError, ProvisionerServer, ProvisionerService
from .transport import HttpTransport, LoopbackHub, TransportError
from .wire import (
    DEFAULT_SEG_SIZE,
    IntegrityError,
    SealingKey,
    Segment,
    SegmentEnvelope,
    UnknownCaseRefsError,
    decrypt_segment,
    encrypt_segment,
    parse_size,
    segment_log,
    unwrap_key,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "AccessDeniedError",
    "Arc",
    "AttestationRejectedError",
    "AttestationReport",
    "DEFAULT_CAPACITY",
    "DEFAULT_SEG_SIZE",
    "DeliveryError",
    "DfStats",
    "EnclaveBudget",
    "EnclaveIdentity",
    "EnclaveMemoryExceeded",
    "Event",
    "EventLog",
    "HeuristicsNet",
    "HttpTransport",
    "IncompleteDeliveryError",
    "IntegrityError",
    "LogParseError",
    "LogSchemaError",
    "LoopbackHub",
    "MinerConfig",
    "MinerReceiver",
    "MinerSession",
    "PartitionError",
    "ProvisionerServer",
    "ProvisionerService",
    "ReferenceRegistry",
    "ScenarioParams",
    "SealingKey",
    "Segment",
    "SegmentEnvelope",
    "TransportError",
    "UnknownCaseRefsError",
    "accumulate",
    "build_net",
    "compute_measurement",
    "decrypt_segment",
    "default_measurement",
    "encrypt_segment",
    "generate_scenario_log",
    "merge_case",
    "parse_csv",
    "parse_log",
    "parse_size",
    "parse_timestamp",
    "parse_xes",
    "partition_by_org",
    "run_convergence",
    "run_memory_experiment",
    "run_protocol",
    "run_scalability_suite",
    "segment_log",
    "serialize_log",
    "serialize_net",
    "split_real_log",
    "standalone_net",
    "unwrap_key",
    "verify_report",
]
