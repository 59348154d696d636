package apknn

// SaveDatasetOn and LoadDatasetOn are SaveDataset and LoadDataset on a given
// filesystem, for the fault tests.
var (
	SaveDatasetOn = saveDataset
	LoadDatasetOn = loadDataset
)

// UnregisterBackend removes kind from the registry, so a test that registers
// a backend can leave the registry as it found it.
func UnregisterBackend(kind BackendKind) {
	backendsMu.Lock()
	defer backendsMu.Unlock()
	delete(backends, kind)
}
