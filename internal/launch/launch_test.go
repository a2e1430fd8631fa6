package launch

import (
	"bytes"
	"io"
	"os/exec"
	"testing"
)

// TestWorkerFailurePropagates starts a lone rank 0 of a two-rank world:
// no peer ever dials in, so the worker must give up after its dial
// timeout, exit nonzero and leave an ERR frame as the last thing on its
// stdout, which is how a launcher learns why a rank died.
func TestWorkerFailurePropagates(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skipf("no Go toolchain to build parsvd-worker: %v", err)
	}
	bin, err := ResolveWorker()
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, "-rank", "0", "-np", "2", "-dial-timeout", "2s")
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err == nil {
		t.Fatalf("lone rank 0 of a 2-rank world exited cleanly:\n%s", stderr.Bytes())
	}
	var verbs []byte
	var last []byte
	for {
		verb, body, err := ReadSessionFrame(&stdout)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("worker stdout after frames %v is not a frame stream: %v", verbs, err)
		}
		verbs = append(verbs, verb)
		last = body
	}
	if len(verbs) == 0 || verbs[len(verbs)-1] != SessErr {
		t.Fatalf("worker stdout frames %v do not end with ERR", verbs)
	}
	t.Logf("ERR frame: %s", last)
}
