package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/jpgd"
)

func TestGenerateTemplateMatchesMarshal(t *testing.T) {
	g := jpgd.GenerateRequest{Base: "AAAA", XDL: "design \"x\";\n", UCF: "INST \"u1/*\" AREA_GROUP = \"AG_u1\";",
		Strict: true, Verify: true, Download: &jpgd.DownloadRequest{}}
	tmpl, err := newGenTemplate(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"g7-12", "hot", "identity"} {
		g.Name = name
		want, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		if got := tmpl.with(name); !bytes.Equal(got, want) {
			t.Errorf("name %q:\n got %s\nwant %s", name, got, want)
		}
	}
}
