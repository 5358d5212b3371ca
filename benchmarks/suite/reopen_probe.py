"""Phase (c) of ``ingest_mixed``: open a store in a fresh process, recount.

``python3 reopen_probe.py STORE`` prints one JSON object: seconds to open,
seconds to recount, and the row and uncertain-row counts it found -- what a
process that was not there when the rows were written sees.
"""

import json
import sys
import time

import repro

if __name__ == "__main__":
    started = time.perf_counter()
    connection = repro.connect(sys.argv[1], engine="sqlite", create=False)
    opened = time.perf_counter()
    readings = connection.query("SELECT id FROM readings")
    events = connection.query("SELECT id FROM events")
    counted = time.perf_counter()
    print(json.dumps({
        "open_s": opened - started,
        "recount_s": counted - opened,
        "readings": len(readings),
        "readings_uncertain": len(readings) - len(readings.certain_rows()),
        "events": len(events),
    }))
    connection.close()
