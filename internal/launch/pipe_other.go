//go:build !linux

package launch

import "os"

// growPipe is a no-op: only Linux resizes a pipe on request.
func growPipe(*os.File, int) {}
