package launch

import (
	"os"
	"syscall"
)

// maxPipe caps growPipe at the default /proc/sys/fs/pipe-max-size: past it
// an unprivileged launcher is refused anyway, and a privileged one would
// pin a whole large frame in kernel memory per rank.
const maxPipe = 1 << 20

// growPipe asks the kernel to let the pipe behind f hold n bytes, up to
// maxPipe, at once. It only ever grows a pipe and is best effort: a size
// over the user's pipe quota is refused, and the pipe keeps its capacity.
func growPipe(f *os.File, n int) {
	n = min(n, maxPipe)
	rc, err := f.SyscallConn()
	if err != nil {
		return
	}
	rc.Control(func(fd uintptr) {
		size, _, errno := syscall.Syscall(syscall.SYS_FCNTL, fd, syscall.F_GETPIPE_SZ, 0)
		if errno == 0 && int(size) < n {
			syscall.Syscall(syscall.SYS_FCNTL, fd, syscall.F_SETPIPE_SZ, uintptr(n))
		}
	})
}
