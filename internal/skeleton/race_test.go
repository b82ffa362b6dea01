//go:build race

package skeleton

func init() { raceBuild = true }
