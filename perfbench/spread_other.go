//go:build !linux

package main

// spreadSubdirs is a no-op off Linux (see spread_linux.go).
func spreadSubdirs(dir string) {}
