package server_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	parsvd "goparsvd"
	"goparsvd/internal/wal"
	"goparsvd/server"
)

// post sends body with the given Content-Type (and Accept, when set) and
// returns the response status and body.
func post(t *testing.T, url, contentType, accept string, body io.Reader) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", contentType)
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, out
}

func wantSameMatrix(t *testing.T, got, want *parsvd.Matrix, what string) {
	t.Helper()
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
		t.Fatalf("%s: %dx%d, want %dx%d", what, got.Rows(), got.Cols(), want.Rows(), want.Cols())
	}
	wantBitIdentical(t, got.RawData(), want.RawData(), what)
}

// TestBinaryFormatConformance: the deterministic workload pushed at one
// model as raw JSON and at another through the client's binary bodies
// yields bit-identical spectra, modes, projections and WAL batch records.
// Hostile binary bodies, and a batch and a sketch with the wrong row
// count, are refused with 400 and leave the model serving unchanged with
// no ingest fault; an oversize body gets 413; JSON stays the answer to any
// request that does not ask for binary.
func TestBinaryFormatConformance(t *testing.T) {
	dir := t.TempDir()
	s := bootCrashable(t, server.Config{CheckpointDir: dir, CheckpointInterval: time.Hour, Logf: func(string, ...any) {}})
	defer func() {
		s.ts.Close()
		s.srv.Close()
	}()
	ctx := context.Background()
	w := parsvd.DefaultWorkload()
	spec := server.ModelSpec{Modes: w.K, ForgetFactor: w.FF}
	for _, name := range []string{"json", "bin"} {
		spec.Name = name
		if _, err := s.c.CreateModel(ctx, spec); err != nil {
			t.Fatal(err)
		}
	}

	batches := drainBatches(t, w, 1)
	for i, b := range batches {
		body, err := json.Marshal(server.NewMatrixJSON(b))
		if err != nil {
			t.Fatal(err)
		}
		if code, _, msg := post(t, s.ts.URL+"/v1/models/json/push", "application/json", "", bytes.NewReader(body)); code != http.StatusOK {
			t.Fatalf("JSON push %d: HTTP %d: %s", i, code, msg)
		}
		if _, err := s.c.Push(ctx, "bin", b); err != nil {
			t.Fatalf("binary push %d: %v", i, err)
		}
	}

	spJSON, err := s.c.Spectrum(ctx, "json")
	if err != nil {
		t.Fatal(err)
	}
	spBin, err := s.c.Spectrum(ctx, "bin")
	if err != nil {
		t.Fatal(err)
	}
	wantBitIdentical(t, spBin.Singular, spJSON.Singular, "binary-fed spectrum")

	// Modes: binary through the client, JSON on an explicit Accept.
	modes, version, err := s.c.Modes(ctx, "bin")
	if err != nil {
		t.Fatal(err)
	}
	if version != spBin.Version {
		t.Fatalf("binary modes carry version %d, spectrum %d", version, spBin.Version)
	}
	var mr server.ModesResponse
	req, _ := http.NewRequest(http.MethodGet, s.ts.URL+"/v1/models/json/modes", nil)
	req.Header.Set("Accept", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/modes with Accept: application/json answered %q", ct)
	}
	err = json.NewDecoder(resp.Body).Decode(&mr)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	jsonModes, err := mr.Modes.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	wantSameMatrix(t, modes, jsonModes, "binary-fed modes")

	// Projection: binary both ways, and JSON both ways on /project.
	probe := batches[len(batches)-1]
	coeffs, err := s.c.Project(ctx, "bin", probe)
	if err != nil {
		t.Fatal(err)
	}
	probeJSON, _ := json.Marshal(server.NewMatrixJSON(probe))
	code, hdr, raw := post(t, s.ts.URL+"/v1/models/json/project", "application/json", "application/json", bytes.NewReader(probeJSON))
	if code != http.StatusOK || hdr.Get("Content-Type") != "application/json" {
		t.Fatalf("JSON /project: HTTP %d, %q", code, hdr.Get("Content-Type"))
	}
	var pr server.MatrixResponse
	if err := json.Unmarshal(raw, &pr); err != nil {
		t.Fatal(err)
	}
	jsonCoeffs, err := pr.Matrix.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	wantSameMatrix(t, coeffs, jsonCoeffs, "binary projection")

	// Hostile binary bodies: 400 each, and the model keeps serving the
	// same spectrum with no ingest fault recorded (checked below).
	hostile := server.HostileBodies(t)
	for name, body := range hostile {
		for _, op := range []string{"push", "push-sketch", "project", "reconstruct"} {
			code, _, msg := post(t, s.ts.URL+"/v1/models/bin/"+op, server.MatrixContentType, "", bytes.NewReader(body))
			if code != http.StatusBadRequest {
				t.Fatalf("hostile body %s on /%s: HTTP %d (%s), want 400", name, op, code, msg)
			}
		}
	}
	// Well-formed bodies the engine refuses — a batch and a sketch factor
	// pair with the wrong row count — are 400s too, and no more an ingest
	// fault than a malformed body: only server-side failures are.
	short := batches[0].Rows() - 4
	_, err = s.c.Push(ctx, "bin", testMatrix(short, 2))
	wantStatus(t, err, http.StatusBadRequest)
	_, err = s.c.PushSketched(ctx, "bin", testMatrix(short, 1), testMatrix(1, 2))
	wantStatus(t, err, http.StatusBadRequest)
	// A body of unknown length that declares more than MaxBodyBytes is
	// refused before anything is allocated.
	var huge []byte
	for _, v := range []uint64{0, 1 << 22, 2, 1 << 23} {
		huge = binary.LittleEndian.AppendUint64(huge, v)
	}
	code, _, msg := post(t, s.ts.URL+"/v1/models/bin/push", server.MatrixContentType, "", io.MultiReader(bytes.NewReader(huge)))
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize binary body: HTTP %d (%s), want 413", code, msg)
	}
	after, err := s.c.Spectrum(ctx, "bin")
	if err != nil {
		t.Fatal(err)
	}
	if after.Version != spBin.Version {
		t.Fatalf("hostile bodies moved the model from version %d to %d", spBin.Version, after.Version)
	}
	wantBitIdentical(t, after.Singular, spBin.Singular, "spectrum after hostile bodies")
	info, err := s.c.Model(ctx, "bin")
	if err != nil {
		t.Fatal(err)
	}
	if info.IngestErr != "" {
		t.Fatalf("refused bodies recorded an ingest fault: %s", info.IngestErr)
	}

	// Both models logged the same bytes: each record is the batch's binary
	// body, whichever format it arrived in.
	records := func(name string) [][]byte {
		log, err := wal.Open(filepath.Join(dir, name+".wal"), wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer log.Close()
		var out [][]byte
		if err := log.Replay(0, func(_ uint64, payload []byte) error {
			out = append(out, bytes.Clone(payload))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	fromJSON, fromBin := records("json"), records("bin")
	if len(fromJSON) != len(batches) || len(fromBin) != len(batches) {
		t.Fatalf("WAL holds %d (JSON) and %d (binary) records, want %d each", len(fromJSON), len(fromBin), len(batches))
	}
	for i, b := range batches {
		want := server.AppendMatrix(nil, b)
		if !bytes.Equal(fromJSON[i], want) || !bytes.Equal(fromBin[i], want) {
			t.Fatalf("WAL record %d differs from the batch's binary body", i)
		}
	}
}

// TestPushAckReportsOwnVersion: every push ack reports the state its own
// engine update published, even when later pushes publish before the
// handler answers. With one push per update, 32 concurrent pushers must
// be acked with versions 1..32, each exactly once.
func TestPushAckReportsOwnVersion(t *testing.T) {
	const pushers = 32
	c := boot(t, server.Config{MaxCoalesce: 1})
	ctx := context.Background()
	if _, err := c.CreateModel(ctx, server.ModelSpec{Name: "acks", Modes: 2}); err != nil {
		t.Fatal(err)
	}
	acks := make([]server.PushAck, pushers)
	var wg sync.WaitGroup
	for p := range acks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ack, err := c.Push(ctx, "acks", testMatrix(8, 1))
			if err != nil {
				t.Errorf("pusher %d: %v", p, err)
			}
			acks[p] = ack
		}()
	}
	wg.Wait()
	sort.Slice(acks, func(i, j int) bool { return acks[i].Version < acks[j].Version })
	for i, ack := range acks {
		if ack.Version != uint64(i+1) || ack.Snapshots != i+1 {
			t.Fatalf("sorted acks[%d] = %+v, want version %d with %d snapshots", i, ack, i+1, i+1)
		}
	}
}

// TestJSONBodyIsOneValue: a JSON body holds exactly one value. Trailing
// whitespace is fine; a second value or trailing garbage is a 400.
func TestJSONBodyIsOneValue(t *testing.T) {
	c := boot(t, server.Config{})
	ctx := context.Background()
	if _, err := c.CreateModel(ctx, server.ModelSpec{Name: "m", Modes: 2}); err != nil {
		t.Fatal(err)
	}
	const batch = `{"rows":3,"cols":2,"data":[1,4,2,5,3,6]}`
	for _, tc := range []struct {
		path, body string
		want       int
	}{
		{"/v1/models/m/push", batch, http.StatusOK},
		{"/v1/models/m/push", batch + " \n\t", http.StatusOK},
		{"/v1/models/m/push", batch + batch, http.StatusBadRequest},
		{"/v1/models/m/push", batch + "garbage", http.StatusBadRequest},
		{"/v1/models/m/project", batch + "[]", http.StatusBadRequest},
		{"/v1/models", `{"name":"n"}{"name":"o"}`, http.StatusBadRequest},
		{"/v1/models/m/merge", `{"model":"n"} x`, http.StatusBadRequest},
	} {
		code, _, msg := post(t, c.BaseURL+tc.path, "application/json", "", strings.NewReader(tc.body))
		if code != tc.want {
			t.Fatalf("POST %s %q: HTTP %d (%s), want %d", tc.path, tc.body, code, msg, tc.want)
		}
	}
	models, err := c.Models(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 1 {
		t.Fatalf("a refused create registered a model: %+v", models)
	}
}
