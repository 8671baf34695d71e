//go:build !go1.24

package main

import "fmt"

// The gateway workload's client and server speak cleartext HTTP/2 through
// http.Protocols, which Go 1.24 added.
const haveGateway = false

func runGateway(*run) error {
	return fmt.Errorf("the gateway workload needs Go 1.24 or later (cleartext HTTP/2 via http.Protocols)")
}
