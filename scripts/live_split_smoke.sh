#!/usr/bin/env bash
# live_split_smoke.sh — the split live deployment in two processes.
#
# Builds lglive once (race detector on), starts a receiver that corrupts
# 1e-3 of the forward path at its ingress MAC, and runs a sender against
# it on fixed loopback ports. Fails unless both processes exit 0 (the
# receiver under -strict), the receiver's ingress dropped frames
# (dropped= is nonzero), and it delivered every packet the sender offered.
set -euo pipefail
cd "$(dirname "$0")/.."

rx_addr=127.0.0.1:17301
tx_addr=127.0.0.1:17302

tmp=$(mktemp -d)
rpid=
trap '[[ -n $rpid ]] && kill "$rpid" 2>/dev/null; rm -rf "$tmp"' EXIT

"${GO:-go}" build -race -o "$tmp/lglive" ./cmd/lglive

# -duration bounds the receiver if the sender never shows up; after a
# normal run it is stopped with SIGINT once the sender has exited (the
# sender holds its socket open for 2 s past its last offered packet, so
# every retransmission has landed by then).
"$tmp/lglive" -mode=receiver -listen "$rx_addr" -peer "$tx_addr" \
    -loss 1e-3 -seed 42 -strict -duration 60s > "$tmp/receiver.log" 2>&1 &
rpid=$!
for _ in $(seq 100); do
    grep -q '^lglive receiver:' "$tmp/receiver.log" && break
    kill -0 "$rpid" 2>/dev/null || break
    sleep 0.1
done

"$tmp/lglive" -mode=sender -listen "$tx_addr" -peer "$rx_addr" \
    -loss 1e-3 -count 30000 -pps 6000 -size 256 | tee "$tmp/sender.log"
kill -INT "$rpid" 2>/dev/null || true
status=0
wait "$rpid" || status=$?
rpid=
cat "$tmp/receiver.log"
if [[ $status -ne 0 ]]; then
    echo "live_split_smoke: receiver exited $status" >&2
    exit 1
fi

tx=$(sed -n 's/^app: tx=\([0-9]*\) .*/\1/p' "$tmp/sender.log")
rx=$(sed -n 's/^app: rx=\([0-9]*\) .*/\1/p' "$tmp/receiver.log")
dropped=$(sed -n 's/.* dropped=\([0-9]*\) .*/\1/p' "$tmp/receiver.log")
if [[ -z $tx || $rx != "$tx" ]]; then
    echo "live_split_smoke: receiver delivered ${rx:-?} of ${tx:-?} offered" >&2
    exit 1
fi
if [[ ${dropped:-0} -eq 0 ]]; then
    echo "live_split_smoke: the receiver's ingress dropped nothing" >&2
    exit 1
fi
echo "live_split_smoke: $rx of $tx delivered, $dropped ingress drops masked"
