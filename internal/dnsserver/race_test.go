//go:build race

package dnsserver

func init() { raceEnabled = true }
