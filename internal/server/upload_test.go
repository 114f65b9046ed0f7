package server

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

// postUpload streams body to the upload endpoint and decodes the error body
// of a non-2xx reply.
func postUpload(t *testing.T, url string, body io.Reader) (int, ErrorResponse) {
	t.Helper()
	resp, err := http.Post(url, "text/csv", body)
	if err != nil {
		t.Fatalf("upload: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	var e ErrorResponse
	if resp.StatusCode >= 300 {
		if err := json.Unmarshal(raw, &e); err != nil {
			t.Fatalf("status %d: decode %q: %v", resp.StatusCode, raw, err)
		}
	}
	return resp.StatusCode, e
}

// TestUploadLineTooLong: a line past the loader's 1 MiB limit is a 400 that
// names the relation, the line and the limit.
func TestUploadLineTooLong(t *testing.T) {
	_, ts := testServer(t, 16)
	body := strings.Repeat("7", 2<<20) + ",1,1\n"
	st, e := postUpload(t, ts.URL+"/v1/datasets/d/relations/R1?attrs=A,B", strings.NewReader(body))
	if st != http.StatusBadRequest || e.Error.Code != CodeBadRequest {
		t.Fatalf("status %d code %q, want 400 %s", st, e.Error.Code, CodeBadRequest)
	}
	if want := "R1 line 1: line longer than 1048576 bytes"; e.Error.Message != want {
		t.Fatalf("message %q, want %q", e.Error.Message, want)
	}
}

// commentStream generates n bytes of '#' comment lines without holding them.
type commentStream struct{ off, n int64 }

func (c *commentStream) Read(p []byte) (int, error) {
	if c.off >= c.n {
		return 0, io.EOF
	}
	p = p[:min(int64(len(p)), c.n-c.off)]
	for i := range p {
		if (c.off+int64(i))%64 == 63 {
			p[i] = '\n'
		} else {
			p[i] = '#'
		}
	}
	c.off += int64(len(p))
	return len(p), nil
}

// TestUploadOverCapIs413 streams a body 1 KiB past maxUploadBytes — all
// comments, so the loader reads every byte up to the cap — with a declared
// and with an inferred schema: the reply is 413 payload_too_large and no
// dataset is created.
func TestUploadOverCapIs413(t *testing.T) {
	if testing.Short() {
		t.Skip("streams 256 MiB per upload")
	}
	_, ts := testServer(t, 16)
	for _, tc := range []struct{ name, query string }{
		{"declared", "?attrs=A,B"},
		{"inferred", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body := &commentStream{n: maxUploadBytes + 1<<10}
			st, e := postUpload(t, ts.URL+"/v1/datasets/big/relations/R1"+tc.query, body)
			if st != http.StatusRequestEntityTooLarge || e.Error.Code != CodePayloadTooLarge {
				t.Fatalf("status %d code %q (%s), want 413 %s", st, e.Error.Code, e.Error.Message, CodePayloadTooLarge)
			}
			var list []DatasetResponse
			if st := doJSON(t, http.MethodGet, ts.URL+"/v1/datasets", nil, &list); st != http.StatusOK {
				t.Fatalf("list datasets: status %d", st)
			}
			if len(list) != 0 {
				t.Fatalf("rejected upload created datasets %+v", list)
			}
		})
	}
}
