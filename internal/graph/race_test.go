//go:build race

package graph_test

func init() { raceBuild = true }
