package apknn

// SaveDatasetOn and LoadDatasetOn are SaveDataset and LoadDataset on a given
// filesystem, for the fault tests.
var (
	SaveDatasetOn = saveDataset
	LoadDatasetOn = loadDataset
)
