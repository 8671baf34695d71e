# Helpers for the CI steps that scrape a live aegaeon-gateway. Build the
# gateway to bin/aegaeon-gateway (CI builds it with coverage), source this
# file from the repository root, then:
#
#   gateway_start -fleet          # launch on :8080, wait for /healthz
#   gateway_complete 4 64 stream  # 4 completions of 64 input tokens, streamed
#   curl -sf localhost:8080/debug/fleet | grep -q ...   # the job's assertions
#   gateway_stop
#
# gateway_start serves 6 models on 1 prefill + 2 decode instances at 500x,
# plus whatever flags the job passes, and sets MODEL to the first served id.

gateway_start() {
	bin/aegaeon-gateway -addr :8080 -models 6 -prefill 1 -decode 2 -speedup 500 "$@" &
	GW=$!
	trap 'kill "$GW" 2>/dev/null' EXIT
	for _ in $(seq 1 50); do
		curl -sf localhost:8080/healthz >/dev/null && break
		sleep 0.2
	done
	MODEL=$(curl -sf localhost:8080/v1/models | sed -n 's/.*"id":"\([^"]*\)".*/\1/p' | head -1)
	test -n "$MODEL"
}

# gateway_complete N INPUT_TOKENS [stream] posts N completions of 8 output
# tokens to MODEL, streamed over SSE when the third argument is "stream".
gateway_complete() {
	local stream=false
	[ "${3:-}" = stream ] && stream=true
	for _ in $(seq 1 "$1"); do
		curl -sf -N localhost:8080/v1/completions \
			-d "{\"model\":\"$MODEL\",\"input_tokens\":$2,\"max_tokens\":8,\"stream\":$stream}" >/dev/null
	done
}

# gateway_stop sends the gateway SIGTERM and waits for it to drain and exit,
# which is when a coverage build writes its counters. It fails if the
# gateway already died or exits nonzero.
gateway_stop() {
	trap - EXIT
	kill "$GW"
	wait "$GW"
}
